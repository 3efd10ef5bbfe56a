// Package machine assembles the full secure multi-GPU system: a CPU node
// and N GPU nodes joined by the interconnect fabric, each fronted by a
// secure-communication endpoint, with unified memory served by per-node
// memory paths and an access-counter page-migration policy. It drives
// workload traces to completion and reports the execution time, traffic,
// and OTP statistics behind every figure in the paper's evaluation.
package machine

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"secmgpu/internal/config"
	"secmgpu/internal/core"
	"secmgpu/internal/crypto"
	"secmgpu/internal/gpu"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/metrics"
	"secmgpu/internal/migration"
	"secmgpu/internal/otp"
	"secmgpu/internal/secure"
	"secmgpu/internal/sim"
	"secmgpu/internal/tlb"
	"secmgpu/internal/workload"
)

// RunOptions selects run-time features orthogonal to the architecture
// configuration.
type RunOptions struct {
	// Functional enables real encryption/MAC verification on every
	// transfer (slower; used by correctness tests and examples).
	Functional bool
	// TraceComms records the per-interval communication series of
	// Figures 13-14.
	TraceComms bool
	// TraceInterval is the series flush period (default 10000 cycles).
	TraceInterval sim.Cycle
}

// eventLimit guards against runaway simulations: a run that processes more
// events fails.
const eventLimit = 400_000_000

// Canonical returns the options with unset fields replaced by their
// defaults — the form under which two option values select identical
// simulation behaviour. New applies it on entry; the sweep engine keys its
// result cache on it.
func (o RunOptions) Canonical() RunOptions {
	if o.TraceInterval == 0 {
		o.TraceInterval = 10000
	}
	return o
}

// Result is the outcome of one simulation run.
type Result struct {
	// Cycles is the execution time: the cycle the last op retired.
	Cycles sim.Cycle
	// Ops is the total remote operations completed.
	Ops uint64
	// Traffic is the fabric byte accounting.
	Traffic interconnect.Stats
	// OTP is the merged pad-use statistics across all nodes.
	OTP otp.Stats
	// OTPPerNode holds each node's pad-use statistics (index = node ID).
	OTPPerNode []otp.Stats
	// Sec is the merged endpoint statistics.
	Sec secure.Stats
	// Migrations is the number of page migrations performed.
	Migrations uint64
	// FailedOps counts operations that fail-completed because their data
	// was poisoned after exhausting retransmissions (zero on a healthy
	// fabric).
	FailedOps uint64
	// StaleCompletions counts duplicate or post-poison completions the
	// recovery protocol tolerated instead of panicking.
	StaleCompletions uint64
	// Burst16 and Burst32 are the distributions of cycles needed for 16
	// and 32 data blocks to gather per (src, dst) pair (Figures 15-16).
	Burst16, Burst32 *metrics.Histogram
	// SendRecvSeries (per GPU, when traced) has lanes {send, recv}
	// per interval (Figure 13).
	SendRecvSeries []*metrics.Series
	// DestSeries (per GPU, when traced) has one lane per destination
	// node (Figure 14).
	DestSeries []*metrics.Series
}

// System is one runnable simulated machine. Build with New, run once with
// Run or RunContext. New builds the system on storage a released cell
// left in the cell store (see cellStore); the run ends the system's life,
// handing that storage back whatever the outcome, and only the returned
// Result stays valid. The engine, fabric, endpoints and caches are new
// objects each cell; they panic if driven after the run.
type System struct {
	cfg    config.Config
	opt    RunOptions
	store  *cellStore
	engine *sim.Engine
	fabric *interconnect.Fabric
	policy *migration.Policy
	nodes  []*node

	remaining int
	burst16   *burstTracker
	burst32   *burstTracker
	tickers   []*sim.Ticker
	ran       bool
}

// New builds a system for cfg and assigns traces[g] to GPU g+1. The CPU is
// a passive home node.
func New(cfg config.Config, traces [][]workload.Op, opt RunOptions) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(traces) != cfg.NumGPUs {
		return nil, fmt.Errorf("machine: %d traces for %d GPUs", len(traces), cfg.NumGPUs)
	}
	opt = opt.Canonical()

	nNodes := cfg.NumProcessors()
	st := takeStore(nNodes)
	engine := st.engine.NewEngine()
	engine.EventLimit = eventLimit
	fabric := st.fabric.NewFabric(engine, cfg)

	s := &System{
		cfg:       cfg,
		opt:       opt,
		store:     st,
		engine:    engine,
		fabric:    fabric,
		policy:    st.pages.NewPolicy(nNodes, cfg.MigrationThreshold),
		remaining: cfg.NumGPUs,
		burst16:   newBurstTracker(16, nNodes, st.bursts[0]),
		burst32:   newBurstTracker(32, nNodes, st.bursts[1]),
	}

	for id := 0; id < nNodes; id++ {
		n := &node{
			sys: s,
			id:  interconnect.NodeID(id),
		}
		n.evH = sim.HandlerFunc(n.onEvent)
		n.takeRequests(&st.nodes[id])
		if n.id.IsCPU() {
			n.memory = st.caches.HostDRAM(cfg.BlockSize)
		} else {
			n.memory = st.caches.HBM(cfg.BlockSize)
			n.ops = traces[id-1]
			n.window = cfg.OutstandingRequests
			if cfg.ModelTLB {
				n.tlbH = tlb.New(2 * sim.Cycle(cfg.PCIeLatency))
			}
			if cfg.CUsPerGPU > 0 {
				perCU := cfg.OutstandingRequests / cfg.CUsPerGPU
				if perCU < 1 {
					perCU = 1
				}
				n.fe = gpu.New(n.ops, cfg.CUsPerGPU, perCU)
			}
		}
		mgr, dyn := buildOTPManager(cfg)
		n.dyn = dyn
		n.ep = st.nodes[id].ep.New(engine, fabric, n.id, &s.cfg, opt.Functional, mgr, n)
		if dyn != nil {
			d := dyn
			tk := sim.NewTicker(engine, sim.Cycle(cfg.IntervalT), func(now sim.Cycle) {
				d.AdjustInterval(now)
			})
			s.tickers = append(s.tickers, tk)
		}
		s.nodes = append(s.nodes, n)
	}

	if opt.TraceComms {
		for _, n := range s.nodes {
			if n.id.IsCPU() {
				continue
			}
			lanes := make([]string, nNodes)
			for i := range lanes {
				lanes[i] = interconnect.NodeID(i).String()
			}
			n.sendRecv = metrics.NewSeries("send", "recv")
			n.dests = metrics.NewSeries(lanes...)
			gpu := n
			s.tickers = append(s.tickers, sim.NewTicker(engine, opt.TraceInterval, func(sim.Cycle) {
				gpu.sendRecv.Flush()
				gpu.dests.Flush()
			}))
		}
	}
	return s, nil
}

// buildOTPManager constructs the per-node OTP manager for the configured
// scheme, or nil when the system is unsecure.
func buildOTPManager(cfg config.Config) (otp.Manager, *core.Dynamic) {
	if !cfg.Secure {
		return nil, nil
	}
	peers := cfg.PeersPerProcessor()
	budget := cfg.OTPEntriesPerGPU()
	eng := crypto.NewEngine(sim.Cycle(cfg.AESGCMLatency))
	switch cfg.Scheme {
	case config.OTPPrivate:
		return otp.NewPrivate(peers, cfg.OTPMultiplier, eng), nil
	case config.OTPShared:
		return otp.NewShared(peers, budget, eng), nil
	case config.OTPCached:
		return otp.NewCached(peers, budget, eng), nil
	case config.OTPDynamic:
		d := core.NewDynamic(peers, budget, cfg.Alpha, cfg.Beta, eng)
		return d, d
	case config.OTPOracle:
		return otp.NewOracle(peers), nil
	default:
		panic(fmt.Sprintf("machine: unknown scheme %v", cfg.Scheme))
	}
}

// Run simulates to completion and returns the result. A system can only be
// run once. It is equivalent to RunContext with a background context.
func (s *System) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext simulates to completion and returns the result. A system can
// only be run once. Cancelling ctx aborts the simulation within a bounded
// number of events and returns ctx's error; the cancellation poll never
// schedules events, so an uncancelled run is event-for-event identical to
// Run (golden digests are unaffected).
func (s *System) RunContext(ctx context.Context) (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("machine: system already ran")
	}
	s.ran = true
	defer s.release()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		s.engine.Check = ctx.Err
	}
	for _, tk := range s.tickers {
		tk.Start()
	}
	for _, n := range s.nodes {
		if n.id.IsCPU() || len(n.ops) == 0 {
			if !n.id.IsCPU() {
				n.done = true
				s.remaining--
			}
			continue
		}
		n.eligibleAt = sim.Cycle(n.ops[0].Gap)
		if n.fe != nil {
			n.scheduleWake(0)
		} else {
			n.scheduleWake(n.eligibleAt)
		}
	}
	if s.remaining == 0 {
		return nil, fmt.Errorf("machine: no GPU has work")
	}

	// The watchdog is armed only when the fabric can misbehave: it
	// schedules real events, which would perturb the deterministic event
	// ordering (and the golden digests) of fault-free runs.
	var wd *sim.Watchdog
	if s.cfg.WatchdogInterval > 0 && (s.cfg.Faults.Active() || s.cfg.Outages.Active()) {
		wd = sim.NewWatchdog(s.engine, sim.WatchdogConfig{
			Interval: sim.Cycle(s.cfg.WatchdogInterval),
			Progress: s.progress,
			Diagnose: s.diagnose,
		})
		wd.Start()
	}

	end, err := s.engine.Run()
	if err != nil {
		// A cancelled context surfaces as the context's own error so
		// callers can errors.Is it against context.Canceled.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	if wd != nil && wd.Tripped() {
		// Checked before the unfinished-GPU error: a tripped run is by
		// definition unfinished, and the diagnosis says why.
		return nil, fmt.Errorf("machine: watchdog tripped at cycle %d after %d cycles without progress: %s",
			wd.TrippedAt(), s.cfg.WatchdogInterval, wd.Diagnosis())
	}
	if s.remaining > 0 {
		return nil, fmt.Errorf("machine: simulation drained with %d GPUs unfinished", s.remaining)
	}

	res := &Result{
		Cycles:     end,
		Traffic:    *s.fabric.Stats(),
		Migrations: s.policy.Migrations(),
		Burst16:    s.burst16.hist,
		Burst32:    s.burst32.hist,
		OTPPerNode: make([]otp.Stats, len(s.nodes)),
	}
	for i, n := range s.nodes {
		res.Ops += uint64(n.completed)
		if st := n.ep.OTPStats(); st != nil {
			res.OTPPerNode[i] = *st
			res.OTP.Merge(st)
		}
		res.Sec.Merge(n.ep.Stats())
		res.FailedOps += n.failedOps
		res.StaleCompletions += n.staleCompletions
		if s.opt.TraceComms && !n.id.IsCPU() {
			res.SendRecvSeries = append(res.SendRecvSeries, n.sendRecv)
			res.DestSeries = append(res.DestSeries, n.dests)
		}
	}
	return res, nil
}

// release hands every part's storage back to the system's cell store
// entry and parks it; RunContext defers it, since a system runs once. The
// engine goes first, so no queued event still names recycled storage.
func (s *System) release() {
	st := s.store
	s.engine.Release()
	s.fabric.Release()
	s.policy.Release()
	for i, n := range s.nodes {
		n.memory.Release()
		n.ep.Release()
		n.releaseRequests(&st.nodes[i])
	}
	st.bursts = [2][]burstPair{s.burst16.pairs, s.burst32.pairs}
	parkStore(st)
}

// progress is the watchdog's monotonic useful-work counter: operations
// retired plus protected payloads delivered anywhere in the system. A run
// that keeps its event queue busy (retry loops, handshake storms) without
// moving this number is wedged.
func (s *System) progress() uint64 {
	var p uint64
	for _, n := range s.nodes {
		p += uint64(n.completed) + n.ep.Stats().DataReceived + n.ep.Stats().ResyncsCompleted
	}
	return p
}

// diagnose builds the watchdog's trip-time dump: engine-level queue and
// timer-slab occupancy, the fabric's count of messages acquired and not
// yet freed, and each endpoint's live protocol state, as one JSON
// document.
func (s *System) diagnose() string {
	var sb strings.Builder
	slots, held, dead := s.engine.TimerSlab()
	fmt.Fprintf(&sb, `{"cycle":%d,"pendingEvents":%d,"timerSlab":{"slots":%d,"held":%d,"dead":%d},"msgsOutstanding":%d,"unfinishedGPUs":%d,"endpoints":[`,
		s.engine.Now(), s.engine.Pending(), slots, held, dead,
		s.fabric.Outstanding(), s.remaining)
	for i, n := range s.nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n.ep.Diag())
	}
	sb.WriteString("]}")
	return sb.String()
}

// Fabric exposes the system's interconnect for tests that script outages
// or interpose on delivery paths.
func (s *System) Fabric() *interconnect.Fabric { return s.fabric }

// Endpoint returns a node's secure endpoint (tests wrap it in interposers
// and inspect per-endpoint state).
func (s *System) Endpoint(id interconnect.NodeID) *secure.Endpoint { return s.nodes[id].ep }

func (s *System) gpuFinished() {
	s.remaining--
	if s.remaining == 0 {
		for _, tk := range s.tickers {
			tk.Stop()
		}
		s.engine.Stop()
	}
}

// noteDataBlock feeds the burst-interval trackers on every data-bearing
// block injected for (src -> dst).
func (s *System) noteDataBlock(src, dst interconnect.NodeID, now sim.Cycle) {
	pair := int(src)*len(s.nodes) + int(dst)
	s.burst16.note(pair, now)
	s.burst32.note(pair, now)
}

// burstTracker measures, per directed pair, the time for n data blocks to
// gather (Figures 15-16). Buckets follow the figures: [0,40), [40,160),
// [160,640), [640,inf).
type burstTracker struct {
	n     int
	hist  *metrics.Histogram
	pairs []burstPair
}

// burstPair is one pair's gathering burst: its blocks so far and the
// cycle the first arrived.
type burstPair struct {
	count int
	start sim.Cycle
}

// newBurstTracker builds a tracker among nodes nodes on the recycled
// pairs array.
func newBurstTracker(n, nodes int, pairs []burstPair) *burstTracker {
	pairs = slices.Grow(pairs[:0], nodes*nodes)[:nodes*nodes]
	clear(pairs)
	return &burstTracker{n: n, hist: metrics.NewHistogram(40, 160, 640), pairs: pairs}
}

func (t *burstTracker) note(pair int, now sim.Cycle) {
	p := &t.pairs[pair]
	if p.count == 0 {
		p.start = now
	}
	p.count++
	if p.count == t.n {
		t.hist.Observe(uint64(now - p.start))
		p.count = 0
	}
}
