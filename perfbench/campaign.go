package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secmgpu/internal/campaign"
	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// Campaign workload sizing. Cells are small, so the lease queue, HTTP and
// JSON, verification votes and store writes carry a large share of the
// time. The verify fraction is the README's hardened setting.
const (
	campaignScale   = 0.01
	campaignWorkers = 2
	verifyFraction  = 0.2
	// statusPoll is how often the benchmark's client polls campaign
	// status while streaming tables.
	statusPoll = 50 * time.Millisecond
	// workerPoll replaces the workers' 500ms default idle poll. At the
	// default, every lease request that finds no work (a verify cell the
	// worker already voted on, the gap before a sweep enqueues) sleeps
	// half a second, which made the cold makespan jump by that quantum
	// from pass to pass.
	workerPoll = 50 * time.Millisecond
	// setupRepeats adds set-up-only cycles so setup_s, well under a
	// millisecond here, has enough samples for a stable median.
	setupRepeats = 30
)

// campaignSpecs derives the burst from the seed: bulk campaigns covering
// fig9, fig21, fig23 and fig25 on all workloads, two of them overlapping
// on fig21 so the queue deduplicates, and one small high-priority fig21
// campaign on two seeded workloads with a seed disjoint from the bulk.
func campaignSpecs(seed int64) (bulk []campaign.Spec, prio campaign.Spec) {
	for _, exps := range [][]string{{"fig9", "fig21"}, {"fig21", "fig23"}, {"fig25"}} {
		bulk = append(bulk, campaign.Spec{Experiments: exps, Scale: campaignScale, Seed: seed})
	}
	reg := workload.Registry()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(reg))
	prio = campaign.Spec{
		Experiments: []string{"fig21"},
		Workloads:   []string{reg[perm[0]].Abbr, reg[perm[1]].Abbr},
		Scale:       campaignScale,
		Seed:        seed + 1_000_003,
		Priority:    campaign.PriorityHigh,
	}
	return bulk, prio
}

// runCampaign measures the campaign service in one process: a coordinator
// with a fresh store behind an httptest loopback server, two in-process
// workers sharing the store, and one submitting client. A pass submits
// the cold burst, waits for it, then resubmits the bulk campaigns, which
// the store serves entirely (the warm phase).
func runCampaign(r *run) error {
	bulk, prio := campaignSpecs(r.seed)
	// Set-up-only cycles run first, so no pass's garbage collection
	// overlaps them.
	for k := 0; k < setupRepeats && !r.traced; k++ {
		svc, setup, err := startService(r.tmp, nil, nil)
		if err != nil {
			return err
		}
		svc.stop()
		r.setupExtra = append(r.setupExtra, setup.Seconds())
	}
	var first [][]campaign.TableResult
	err := r.loop(1, func(i int, tr *tracer) (passOut, error) {
		out, tables, err := campaignPass(r, tr, bulk, prio)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = tables
		}
		same := len(tables) == len(first)
		for c := 0; same && c < len(tables); c++ {
			same = tablesEqual(tables[c], first[c])
		}
		r.check("tables identical across passes", same, "pass %d differs from pass 0", i)
		return out, nil
	})
	if err != nil {
		return err
	}
	return checkAgainstSweep(r, bulk, prio, first)
}

// checkAgainstSweep compares the cold tables with an in-process sweep of
// the same experiments and seeds: they must be byte-identical.
func checkAgainstSweep(r *run, bulk []campaign.Spec, prio campaign.Spec, got [][]campaign.TableResult) error {
	engine := sweep.New(figuresPar)
	specs := append(append([]campaign.Spec(nil), bulk...), prio)
	for c, spec := range specs {
		p := experiments.Params{GPUs: 4, Scale: spec.Scale, Seed: spec.Seed, Workloads: spec.Workloads, Parallelism: figuresPar, Engine: engine}
		want := make([]campaign.TableResult, 0, len(spec.Experiments))
		for _, name := range spec.Experiments {
			run, err := experiments.Lookup(name)
			if err != nil {
				return err
			}
			t, err := run(context.Background(), p)
			if err != nil {
				return fmt.Errorf("reference sweep %s: %w", name, err)
			}
			want = append(want, campaign.TableResult{Name: name, Text: t.String()})
		}
		ok := c < len(got) && tablesEqual(got[c], want)
		r.check("campaign tables equal an in-process sweep", ok, "campaign %d (%v) differs", c, spec.Experiments)
	}
	return nil
}

// tablesEqual compares two campaigns' tables by experiment name and text.
func tablesEqual(a, b []campaign.TableResult) bool {
	if len(a) != len(b) {
		return false
	}
	byName := make(map[string]string, len(a))
	for _, t := range a {
		byName[t.Name] = t.Text
	}
	for _, t := range b {
		if text, ok := byName[t.Name]; !ok || text != t.Text {
			return false
		}
	}
	return true
}

// service is one in-process campaign deployment.
type service struct {
	dir    string
	store  *store.Store
	coord  *campaign.Coordinator
	srv    *httptest.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup

	transports []*http.Transport // of every client, closed by stop
}

// startService opens a fresh store, starts the coordinator behind a
// loopback server and starts the workers; it returns once the workers are
// running, with the elapsed set-up time. rpc and tr may be nil.
func startService(tmp string, rpc *rpcStats, tr *tracer) (*service, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, 0, err
	}
	svc := &service{dir: dir}
	tr.do("store.Open", rpc.parent(), func(int64) {
		svc.store, err = store.Open(dir, store.Options{SimDigest: store.BinaryDigest()})
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	tr.do("campaign.NewCoordinator", rpc.parent(), func(int64) {
		svc.coord = campaign.NewCoordinator(campaign.Options{Store: svc.store, VerifyFraction: verifyFraction})
	})
	svc.srv = httptest.NewServer(svc.coord.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	svc.cancel = cancel
	for w := 0; w < campaignWorkers; w++ {
		client := svc.newClient(rpc, tr, true)
		worker := campaign.NewWorker(client, campaign.WorkerOptions{Name: fmt.Sprintf("w%d", w), Store: svc.store, Poll: workerPoll})
		svc.wg.Add(1)
		go func() {
			defer svc.wg.Done()
			_ = worker.Run(ctx) // returns ctx.Err() when stopped
		}()
	}
	return svc, time.Since(t0), nil
}

// stop shuts the workers down and waits for them, closes the clients'
// connections, then the server and the coordinator, and deletes the store.
func (s *service) stop() {
	s.cancel()
	s.wg.Wait()
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	s.srv.Close()
	s.coord.Close()
	_ = removeAndSync(s.dir) // a leftover store only costs disk space
}

// campaignPass runs one cold burst and one warm resubmission on a fresh
// deployment and returns the pass metrics and the cold tables of the bulk
// campaigns followed by the priority campaign.
func campaignPass(r *run, tr *tracer, bulk []campaign.Spec, prio campaign.Spec) (passOut, [][]campaign.TableResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	pass := tr.begin("pass", 0)
	defer tr.end(pass)
	rpc := newRPCStats()
	setupSpan := tr.begin("setup", pass)
	rpc.phase.Store(setupSpan)
	svc, setup, err := startService(r.tmp, rpc, tr)
	tr.end(setupSpan)
	if err != nil {
		return nil, nil, err
	}
	defer svc.stop()
	client := svc.newClient(rpc, tr, false)

	// Cold phase: the burst from one client, then the priority campaign.
	coldSpan := tr.begin("cold", pass)
	rpc.phase.Store(coldSpan)
	specs := append(append([]campaign.Spec(nil), bulk...), prio)
	cold, err := submitAndWait(ctx, r, client, specs)
	tr.end(coldSpan)
	if err != nil {
		return nil, nil, err
	}
	tables := make([][]campaign.TableResult, len(cold))
	for c, res := range cold {
		tables[c] = res.tables
	}

	// Warm phase: resubmit the bulk campaigns; the store serves them.
	warmSpan := tr.begin("warm", pass)
	rpc.phase.Store(warmSpan)
	warm, err := submitAndWait(ctx, r, client, bulk)
	tr.end(warmSpan)
	if err != nil {
		return nil, nil, err
	}
	for c, res := range warm {
		r.check("warm tables equal cold tables", tablesEqual(res.tables, cold[c].tables), "bulk campaign %d", c)
		r.check("warm campaign served by the store", res.status.Cells.Delegated == 0,
			"bulk campaign %d delegated %d cells", c, res.status.Cells.Delegated)
	}

	var firsts []float64
	for _, res := range cold[:len(bulk)] {
		firsts = append(firsts, res.firstTable.Seconds())
	}
	coldWall := makespan(cold)
	out := passOut{
		"setup_s":         setup.Seconds(),
		"wall_s":          coldWall.Seconds(),
		"first_table_s":   median(firsts),
		"priority_wait_s": cold[len(bulk)].status.Finished.Sub(cold[len(bulk)].submitted).Seconds(),
		"warm_wall_s":     makespan(warm).Seconds(),
	}
	rpc.mu.Lock()
	r.attempted += rpc.calls
	r.failed += rpc.errors
	rpc.mu.Unlock()
	if tr == nil {
		return out, tables, nil
	}

	qs := svc.coord.Queue().Stats()
	ss := svc.store.Stats()
	out["store.puts"] = float64(ss.Puts)
	out["store.hit_frac"] = ratio(float64(ss.Hits), float64(ss.Hits+ss.Misses))
	rpc.mu.Lock()
	out["campaign.lease_ms_p50"] = quantile(rpc.lat["lease"], 0.5)
	out["campaign.lease_ms_p99"] = quantile(rpc.lat["lease"], 0.99)
	out["campaign.complete_ms_p50"] = quantile(rpc.lat["complete"], 0.5)
	out["campaign.complete_ms_p99"] = quantile(rpc.lat["complete"], 0.99)
	out["campaign.status_ms_p50"] = quantile(rpc.lat["status"], 0.5)
	out["campaign.empty_lease_frac"] = ratio(float64(rpc.emptyLeases), float64(len(rpc.lat["lease"])))
	out["campaign.rpc_errors"] = float64(rpc.errors)
	out["campaign.worker_busy_frac"] = ratio(rpc.busy.Seconds(), coldWall.Seconds()*campaignWorkers)
	rpc.mu.Unlock()
	out["campaign.dup_exec_frac"] = ratio(float64(qs.Leased-qs.Completed), float64(qs.Leased))
	out["campaign.deduped"] = float64(qs.Deduped)
	out["campaign.hedged"] = float64(qs.Hedged)
	out["campaign.votes"] = float64(qs.Votes)
	wait, err := queueWaitMS(svc.coord.Queue().Latencies())
	if err != nil {
		return nil, nil, err
	}
	out["campaign.queue_wait_ms_p50"] = bucketQuantile(wait, 0.5)
	out["campaign.queue_wait_ms_p99"] = bucketQuantile(wait, 0.99)
	if len(r.costs) == 0 {
		r.costs = append(r.costs,
			costRow{Layer: "store.Put", Metric: "store.put_ms", Unit: time.Millisecond, Calls: float64(ss.Puts), Source: "store Stats.Puts"},
			costRow{Layer: "store.Get", Metric: "store.get_ms", Unit: time.Millisecond, Calls: float64(ss.Hits + ss.Misses), Source: "store Stats.Hits+Misses"},
		)
	}
	return out, tables, nil
}

// submission is one campaign's outcome as the client saw it.
type submission struct {
	submitted  time.Time
	firstTable time.Duration
	status     campaign.Status
	tables     []campaign.TableResult
}

// submitAndWait submits specs in order from one client, then streams each
// campaign's tables until all are terminal, and fetches the final tables.
func submitAndWait(ctx context.Context, r *run, client *campaign.Client, specs []campaign.Spec) ([]submission, error) {
	subs := make([]submission, len(specs))
	ids := make([]string, len(specs))
	for c, spec := range specs {
		subs[c].submitted = time.Now()
		st, err := client.Submit(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("submit %v: %w", spec.Experiments, err)
		}
		ids[c] = st.ID
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for c := range specs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := &subs[c]
			var once sync.Once
			s.status, errs[c] = client.WaitTables(ctx, ids[c], statusPoll, nil, func(campaign.TableResult) {
				once.Do(func() { s.firstTable = time.Since(s.submitted) })
			})
			if errs[c] == nil {
				s.tables, errs[c] = client.Tables(ctx, ids[c])
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("campaign %v: %w", specs[c].Experiments, err)
		}
		r.check("campaign done", subs[c].status.State == campaign.StateDone,
			"campaign %v ended %s: %s", specs[c].Experiments, subs[c].status.State, subs[c].status.Error)
	}
	return subs, nil
}

// makespan is the time from the first submission to the last campaign's
// completion, by the coordinator's clock in this same process.
func makespan(subs []submission) time.Duration {
	var end time.Time
	for _, s := range subs {
		if s.status.Finished.After(end) {
			end = s.status.Finished
		}
	}
	return end.Sub(subs[0].submitted)
}

// histogram is a metrics.Histogram as it marshals to JSON.
type histogram struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// queueWaitMS merges the per-campaign enqueue-to-grant histograms.
func queueWaitMS(lat []campaign.CampaignLatency) (histogram, error) {
	var h histogram
	for _, l := range lat {
		b, err := json.Marshal(l.WaitMS)
		if err != nil {
			return h, err
		}
		var one histogram
		if err := json.Unmarshal(b, &one); err != nil {
			return h, err
		}
		if h.Counts == nil {
			h = histogram{Bounds: one.Bounds, Counts: make([]uint64, len(one.Counts))}
		}
		for i := range one.Counts {
			if i < len(h.Counts) {
				h.Counts[i] += one.Counts[i]
			}
		}
	}
	return h, nil
}

// bucketQuantile returns the upper bound of the bucket holding the
// q-quantile (the last bound for the overflow bucket); the queue keeps
// only bucketed waits.
func bucketQuantile(h histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if float64(seen) >= rank {
			return float64(h.Bounds[min(i, len(h.Bounds)-1)])
		}
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// rpcStats times every request the benchmark's clients send, at the HTTP
// boundary.
type rpcStats struct {
	phase atomic.Int64 // span the RPCs of the current phase hang under

	mu          sync.Mutex
	lat         map[string][]float64 // op -> ms
	calls       int
	errors      int
	emptyLeases int
	busy        time.Duration // lease -> complete/fail, summed over workers
}

func newRPCStats() *rpcStats {
	return &rpcStats{lat: make(map[string][]float64)}
}

func (s *rpcStats) parent() int64 {
	if s == nil {
		return 0
	}
	return s.phase.Load()
}

// newClient returns a campaign client with its own transport, as a
// separate process would have, timing every request into rpc (when not
// nil). worker marks a worker's client, whose lease-to-publish intervals
// count as busy time.
//
// Its connections close with a reset (linger 0) and stop closes them
// before the server, so a run leaves no TIME_WAIT sockets behind: the
// hundreds an earlier run left slowed the next runs' listener set-up
// (bind to port 0) threefold.
func (s *service) newClient(rpc *rpcStats, tr *tracer, worker bool) *campaign.Client {
	next := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	next.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dialer.DialContext(ctx, network, addr)
		if tcp, ok := conn.(*net.TCPConn); ok {
			_ = tcp.SetLinger(0) // best effort: a failure only leaves a TIME_WAIT
		}
		return conn, err
	}
	s.transports = append(s.transports, next)
	var rt http.RoundTripper = next
	if rpc != nil {
		rt = &timedTransport{next: next, stats: rpc, tr: tr, worker: worker}
	}
	return campaign.NewClient(s.srv.URL, &http.Client{Timeout: 60 * time.Second, Transport: rt})
}

// timedTransport is the instrumented RoundTripper of one client.
type timedTransport struct {
	next   http.RoundTripper
	stats  *rpcStats
	tr     *tracer
	worker bool

	mu       sync.Mutex
	leasedAt time.Time
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := rpcOp(req.Method, req.URL.Path)
	span := t.tr.begin("rpc."+op, t.stats.phase.Load())
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	t.tr.end(span)

	s := t.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	s.lat[op] = append(s.lat[op], float64(end.Sub(t0).Microseconds())/1000)
	if err != nil || resp.StatusCode >= 400 {
		s.errors++
		return resp, err
	}
	switch {
	case op == "lease" && resp.StatusCode == http.StatusNoContent:
		s.emptyLeases++
	case op == "lease" && t.worker:
		t.mu.Lock()
		t.leasedAt = end
		t.mu.Unlock()
	case (op == "complete" || op == "fail") && t.worker:
		t.mu.Lock()
		if !t.leasedAt.IsZero() {
			s.busy += end.Sub(t.leasedAt)
			t.leasedAt = time.Time{}
		}
		t.mu.Unlock()
	}
	return resp, nil
}

// rpcOp names a request by its API route.
func rpcOp(method, path string) string {
	switch {
	case path == "/v1/lease":
		return "lease"
	case strings.HasPrefix(path, "/v1/lease/"):
		return path[strings.LastIndex(path, "/")+1:] // renew, complete, fail
	case path == "/v1/campaigns" && method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(path, "/v1/campaigns/") && strings.HasSuffix(path, "/tables"):
		return "tables"
	case strings.HasPrefix(path, "/v1/campaigns/"):
		return "status"
	case path == "/v1/healthz":
		return "health"
	}
	return "other"
}
