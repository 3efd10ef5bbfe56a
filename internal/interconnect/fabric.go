package interconnect

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"secmgpu/internal/config"
	"secmgpu/internal/sim"
)

// Deliverer receives messages that arrive at a node.
type Deliverer interface {
	// Deliver is called when msg fully arrives at its destination.
	Deliver(now sim.Cycle, msg *Message)
}

// DelivererFunc adapts a function to the Deliverer interface.
type DelivererFunc func(now sim.Cycle, msg *Message)

// Deliver calls f.
func (f DelivererFunc) Deliver(now sim.Cycle, msg *Message) { f(now, msg) }

// stage is a FIFO, work-conserving serialization point (a NIC or a wire
// direction): each message occupies it for overhead + size/bandwidth
// cycles. The fixed overhead models packetization/flit framing, which makes
// message count — not just bytes — consume fabric capacity; eliminating
// per-block ACK and MsgMAC packets is how metadata batching buys bandwidth
// back.
type stage struct {
	bandwidth float64   // bytes per cycle
	overhead  sim.Cycle // fixed per-message occupancy
	nextFree  sim.Cycle
	busy      sim.Cycle // total occupied cycles, for utilization reporting
}

// pass serializes size bytes starting no earlier than at, returning the
// cycle the last byte leaves the stage.
func (s *stage) pass(at sim.Cycle, size int) sim.Cycle {
	start := at
	if s.nextFree > start {
		start = s.nextFree
	}
	tx := s.overhead + sim.Cycle(math.Ceil(float64(size)/s.bandwidth))
	if tx == 0 {
		tx = 1
	}
	s.nextFree = start + tx
	s.busy += tx
	return s.nextFree
}

// Fabric is the full interconnect: a shared PCIe bus stage at the CPU, a
// NIC stage per GPU, and a duplex wire per node pair. Message timing is
// resolved eagerly at send time, which is exact for FIFO work-conserving
// stages because sends are processed in simulation-time order.
type Fabric struct {
	engine *sim.Engine
	nodes  int

	// st lent the arrays, generators and message list; nil once released.
	st *Storage

	// nicOut/nicIn are per-node aggregate injection/ejection stages.
	// nicOut heads the fabric's one stage array, which nicIn, wires and
	// the switch links share.
	nicOut []stage
	nicIn  []stage
	// wires[src*nodes+dst] is the directed wire stage from src to dst.
	wires []stage
	// latency[src*nodes+dst] is the propagation latency of the src->dst
	// path.
	latency []sim.Cycle

	deliverers []Deliverer

	// Switch topology state (nil slices in p2p mode).
	switched  bool
	uplinks   []stage
	downlinks []stage
	crossbar  stage

	// Fault injection state (nil when the profile is inactive).
	faults   config.FaultProfile
	faultRNG [][]*rand.Rand
	// rngs holds the generators of faultRNG and the outage schedules,
	// the first drawn of them in use and the rest spare.
	rngs  []linkRand
	drawn int

	// Outage state (nil until a profile is configured or a scripted
	// outage is forced).
	outages *outageModel

	// deliverH is the single Handler used for every arrival event, with
	// the message itself as the (pointer, hence unboxed) event payload —
	// scheduling a delivery allocates nothing.
	deliverH sim.Handler

	// msgs is the fabric's message free list. The fabric runs on one
	// goroutine, so it is a plain intrusive list.
	msgs msgList
	// acquired and freed count AcquireMessage and FreeMessage calls on
	// pooled messages; see Outstanding.
	acquired, freed int

	stats Stats
}

// msgList is a free list of zeroed messages.
type msgList struct {
	head *Message
	n    int
}

// trim cuts the list to its first keep messages.
func (l *msgList) trim(keep int) {
	if l.n <= keep {
		return
	}
	if keep == 0 {
		l.head, l.n = nil, 0
		return
	}
	m := l.head
	for i := 1; i < keep; i++ {
		m = m.next
	}
	m.next = nil
	l.n = keep
}

// Storage keeps a released fabric's arrays, generators and message free
// list for the next fabric built on it. The zero value is empty storage.
// A reused generator's source is overwritten with a freshly seeded
// source's state (see rng), so it draws the same sequence as a new one.
type Storage struct {
	stages     []stage
	latency    []sim.Cycle
	deliverers []Deliverer
	rngs       []linkRand
	msgs       msgList
}

// maxParkedMsgBytes bounds, in bytes of Message, the free list a Storage
// keeps. One cell's list holds up to ~4,100 messages (a 16-GPU
// page-migration cell); the median cell of a `secbench -exp all` pass
// needs 895. The machine package parks at most GOMAXPROCS Storages, so
// at two their lists hold at most 512 KiB; a 1 MiB budget ran perfbench
// `figures` ~5% faster but `campaign` ~1% higher in resident memory.
const maxParkedMsgBytes = 1 << 18

// maxParkedMsgs is maxParkedMsgBytes in messages.
const maxParkedMsgs = maxParkedMsgBytes / messageBytes

// The switch topology (config.Config.SwitchTopology, DGX-2 / NVSwitch
// style) routes all GPU-GPU traffic through a central switch: each GPU has
// one uplink and one downlink at NVLink bandwidth, and the switch itself has
// an aggregate crossbar bandwidth of switchBandwidthLinks NVLinks and adds
// switchHop cycles of latency. The default, p2p, wires every GPU pair
// directly (DGX-1 style).
const (
	switchBandwidthLinks = 8
	switchHop            = 30
)

// duplicateDelay is how many cycles after the original a duplicated copy
// arrives, as if re-injected on the wire.
const duplicateDelay = 7

// NewFabric builds the fabric of the system cfg describes, which
// config.Validate accepts. Deliverers must be registered for every node
// before messages are sent to it.
//
// Fault injection (cfg.Faults) drops, corrupts or duplicates secure-channel
// messages (those carrying a Sec envelope); the unprotected control plane is
// exempt, since no recovery protocol exists for it and the paper's baseline
// assumes reliable links. Faults are drawn from per-link generators seeded
// by (Seed, src, dst), for deterministic, link-independent sequences.
func NewFabric(engine *sim.Engine, cfg config.Config) *Fabric {
	return new(Storage).NewFabric(engine, cfg)
}

// NewFabric is the package-level NewFabric on st's storage, lent until
// the fabric's Release.
func (st *Storage) NewFabric(engine *sim.Engine, cfg config.Config) *Fabric {
	n := cfg.NumProcessors()
	links := 2 * n
	if cfg.SwitchTopology {
		links = 4 * n
	}
	// Every stage and latency is assigned below and the deliverer table
	// was cleared at release, so the recycled arrays need no clearing.
	stages := grow(st.stages, links+n*n)
	f := &Fabric{
		engine:     engine,
		nodes:      n,
		st:         st,
		nicOut:     stages[:n],
		nicIn:      stages[n : 2*n],
		wires:      stages[links:],
		latency:    grow(st.latency, n*n),
		deliverers: grow(st.deliverers, n),
		rngs:       st.rngs,
		msgs:       st.msgs,
		switched:   cfg.SwitchTopology,
		faults:     cfg.Faults,
		stats:      newStats(n),
	}
	*st = Storage{}
	f.deliverH = sim.HandlerFunc(f.deliverEvent)
	if cfg.Faults.Active() {
		f.faultRNG = make([][]*rand.Rand, n)
		for s := 0; s < n; s++ {
			f.faultRNG[s] = make([]*rand.Rand, n)
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				// A distinct deterministic stream per directed link: a
				// fault on one link never perturbs another's sequence.
				f.faultRNG[s][d] = f.rng(cfg.Faults.Seed ^ int64(s*n+d+1)*0x5851f42d4c957f2d)
			}
		}
	}
	if cfg.Outages.Active() {
		f.outages = newOutageModel(f, cfg.Outages)
	}
	if cfg.SwitchTopology {
		f.crossbar = stage{bandwidth: switchBandwidthLinks * cfg.NVLinkBandwidth}
		f.uplinks = stages[2*n : 3*n]
		f.downlinks = stages[3*n : 4*n]
		for i := range f.uplinks {
			f.uplinks[i] = stage{bandwidth: cfg.NVLinkBandwidth}
			f.downlinks[i] = stage{bandwidth: cfg.NVLinkBandwidth}
		}
	}
	overhead := sim.Cycle(cfg.MsgOverheadCycles)
	for i := 0; i < n; i++ {
		bw := cfg.GPUNICBandwidth
		if NodeID(i).IsCPU() {
			bw = cfg.PCIeBandwidth
		}
		f.nicOut[i] = stage{bandwidth: bw, overhead: overhead}
		f.nicIn[i] = stage{bandwidth: bw, overhead: overhead}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			switch {
			case s == d:
				f.wires[s*n+d], f.latency[s*n+d] = stage{}, 0
			case NodeID(s).IsCPU() || NodeID(d).IsCPU():
				f.wires[s*n+d] = stage{bandwidth: cfg.PCIeBandwidth}
				f.latency[s*n+d] = sim.Cycle(cfg.PCIeLatency)
			default:
				f.wires[s*n+d] = stage{bandwidth: cfg.NVLinkBandwidth}
				f.latency[s*n+d] = sim.Cycle(cfg.NVLinkLatency)
			}
		}
	}
	return f
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Release ends the fabric's life: it hands its storage back, the message
// list trimmed to maxParkedMsgs. machine.System calls it when a cell
// ends, after releasing the engine.
// Afterwards AcquireMessage and Send panic, and FreeMessage drops what it
// is handed, so a message still out at the end of the cell never enters
// another fabric's list; Stats and Outstanding keep reporting the final
// state. Releasing twice is a no-op.
func (f *Fabric) Release() {
	st := f.st
	if st == nil {
		return
	}
	f.st = nil
	// Only the generators this fabric drew go back: spares an earlier,
	// larger profile left are dropped.
	rngs := f.rngs[:f.drawn]
	clear(rngs[len(rngs):cap(rngs)])
	clear(f.deliverers)
	f.msgs.trim(maxParkedMsgs)
	*st = Storage{
		stages:     f.nicOut[:0],
		latency:    f.latency[:0],
		deliverers: f.deliverers[:0],
		rngs:       rngs,
		msgs:       f.msgs,
	}
	f.faultRNG, f.outages, f.rngs, f.drawn, f.msgs = nil, nil, nil, 0, msgList{}
}

// mustLive panics when the fabric has been released.
func (f *Fabric) mustLive() {
	if f.st == nil {
		panic("interconnect: fabric used after Release")
	}
}

// AcquireMessage returns a zeroed message from the fabric's free list,
// allocating one when the list is empty.
//
// Ownership protocol: the sender owns the message until Send; from then
// the fabric owns it and frees it to its list after the destination's
// Deliver returns (or at once on a fault or outage drop). A receiver that
// needs the message beyond its Deliver call — e.g. an OTP stall delaying
// HandleData — must call Retain inside Deliver and hand it back with
// FreeMessage when done. Messages built as plain literals (tests, Clone)
// are not pooled: FreeMessage ignores them.
func (f *Fabric) AcquireMessage() *Message {
	f.mustLive()
	l := &f.msgs
	m := l.head
	if m == nil {
		m = new(Message)
	} else {
		l.head, m.next = m.next, nil
		l.n--
	}
	m.pooled = true
	f.acquired++
	return m
}

// FreeMessage zeroes a pooled message, keeping only its ciphertext
// block, and pushes it on the fabric's free list. It is a no-op on
// messages not obtained from AcquireMessage, or already freed, so paths
// that build literal Messages need no special casing. A released fabric
// counts the message but drops it. After FreeMessage the caller must not
// touch the message (or any Sec envelope or ciphertext attached to it)
// again.
func (f *Fabric) FreeMessage(m *Message) {
	if !m.pooled {
		return
	}
	f.freed++
	if f.st == nil {
		*m = Message{}
		return
	}
	l := &f.msgs
	*m = Message{next: l.head, cipher: m.cipher}
	l.head = m
	l.n++
}

// Outstanding returns the pooled messages acquired from this fabric and
// not yet freed: zero after a run that drained, positive while messages
// are in flight, held by a sender, retained by a receiver, or lost to a
// leak.
func (f *Fabric) Outstanding() int { return f.acquired - f.freed }

// Register installs the deliverer for a node.
func (f *Fabric) Register(node NodeID, d Deliverer) {
	f.deliverers[node] = d
}

// NumNodes returns the processor count including the CPU.
func (f *Fabric) NumNodes() int { return f.nodes }

// Send injects msg at the current cycle. The arrival event is scheduled
// after sender-NIC serialization, wire serialization, propagation latency,
// and receiver-NIC serialization.
func (f *Fabric) Send(msg *Message) {
	f.mustLive()
	if msg.Src == msg.Dst {
		panic(fmt.Sprintf("interconnect: self-send on node %v", msg.Src))
	}
	if int(msg.Src) >= f.nodes || int(msg.Dst) >= f.nodes || msg.Src < 0 || msg.Dst < 0 {
		panic(fmt.Sprintf("interconnect: send %v->%v outside %d-node fabric", msg.Src, msg.Dst, f.nodes))
	}
	if f.deliverers[msg.Dst] == nil {
		panic(fmt.Sprintf("interconnect: no deliverer registered for %v", msg.Dst))
	}
	f.stats.record(msg)

	now := f.engine.Now()
	size := msg.Size()
	t := f.nicOut[msg.Src].pass(now, size)
	if f.switched && !msg.Src.IsCPU() && !msg.Dst.IsCPU() {
		// GPU-GPU traffic rides the per-GPU uplink, crosses the shared
		// crossbar, and exits on the destination's downlink.
		t = f.uplinks[msg.Src].pass(t, size)
		t = f.crossbar.pass(t, size)
		t += switchHop + f.latency[int(msg.Src)*f.nodes+int(msg.Dst)]
		t = f.downlinks[msg.Dst].pass(t, size)
	} else {
		link := int(msg.Src)*f.nodes + int(msg.Dst)
		t = f.wires[link].pass(t, size)
		t += f.latency[link]
	}
	t = f.nicIn[msg.Dst].pass(t, size)

	// Outages blackhole secure-channel traffic wholesale: a dark link or a
	// resetting endpoint swallows every protected message crossing it for
	// the window's duration. Like faults, the decision comes after timing
	// resolution (the bytes occupied the stages before vanishing), and the
	// unprotected control plane is exempt so the simulation can drain.
	if f.outages != nil && msg.Sec != nil && f.outages.blocked(now, msg.Src, msg.Dst) {
		f.stats.OutageDropped++
		f.FreeMessage(msg)
		return
	}

	// Fault injection applies only to secure-channel traffic (messages
	// carrying a Sec envelope); the control plane is lossless. The decision
	// comes after timing resolution: a dropped message still occupied every
	// stage up to the fault.
	if f.faultRNG != nil && msg.Sec != nil {
		r := f.faultRNG[msg.Src][msg.Dst].Float64()
		switch {
		case r < f.faults.DropRate:
			f.stats.FaultDropped++
			f.FreeMessage(msg)
			return
		case r < f.faults.DropRate+f.faults.CorruptRate:
			f.stats.FaultCorrupted++
			msg.Corrupted = true
			if len(msg.Sec.Ciphertext) > 0 {
				msg.Sec.Ciphertext = append([]byte(nil), msg.Sec.Ciphertext...)
				msg.Sec.Ciphertext[0] ^= 0x40
			}
		case r < f.faults.DropRate+f.faults.CorruptRate+f.faults.DuplicateRate:
			f.stats.FaultDuplicated++
			// The duplicate outlives the original's delivery, so it must
			// own its envelope and ciphertext.
			f.engine.Schedule(t+duplicateDelay, f.deliverH, msg.Clone())
		}
	}

	f.engine.Schedule(t, f.deliverH, msg)
}

// deliverEvent hands an arrived message to its destination and, unless the
// receiver retained it, frees it to the fabric's list. This is the free
// point of the ownership protocol (see AcquireMessage).
func (f *Fabric) deliverEvent(ev sim.Event) {
	msg := ev.Payload.(*Message)
	f.deliverers[msg.Dst].Deliver(f.engine.Now(), msg)
	if !msg.retained {
		f.FreeMessage(msg)
	}
}

// Stats returns the accumulated traffic statistics.
func (f *Fabric) Stats() *Stats { return &f.stats }

// Stats aggregates fabric traffic. BaseBytes is traffic the unsecure
// baseline would also carry; MetaBytes is everything added by protection.
type Stats struct {
	Messages      uint64
	BaseBytes     uint64
	MetaBytes     uint64
	MemProtBytes  uint64
	ByCategory    [numCategories]uint64
	perNodeSent   []uint64
	perNodeRecved []uint64

	// Fault-injection counters (config.FaultProfile): secure-channel messages
	// dropped, corrupted, or duplicated in flight.
	FaultDropped    uint64
	FaultCorrupted  uint64
	FaultDuplicated uint64

	// Outage counters (config.OutageProfile): secure-channel messages blackholed
	// by a dark link or resetting node, and the number of link/node outage
	// windows entered (scripted windows count once when forced).
	OutageDropped uint64
	LinkOutages   uint64
	NodeOutages   uint64
}

func newStats(nodes int) Stats {
	return Stats{
		perNodeSent:   make([]uint64, nodes),
		perNodeRecved: make([]uint64, nodes),
	}
}

func (s *Stats) record(msg *Message) {
	s.Messages++
	s.BaseBytes += uint64(msg.BaseBytes)
	s.MetaBytes += uint64(msg.MetaBytes)
	s.MemProtBytes += uint64(msg.MemProtBytes)
	s.ByCategory[msg.Category] += uint64(msg.BaseBytes + msg.MetaBytes)
	s.ByCategory[CatMemProt] += uint64(msg.MemProtBytes)
	s.perNodeSent[msg.Src] += uint64(msg.Size())
	s.perNodeRecved[msg.Dst] += uint64(msg.Size())
}

// TotalBytes is all traffic carried by the fabric.
func (s *Stats) TotalBytes() uint64 { return s.BaseBytes + s.MetaBytes + s.MemProtBytes }

// NodeSentBytes returns bytes injected by the node.
func (s *Stats) NodeSentBytes(n NodeID) uint64 { return s.perNodeSent[n] }

// NodeReceivedBytes returns bytes ejected at the node.
func (s *Stats) NodeReceivedBytes(n NodeID) uint64 { return s.perNodeRecved[n] }

// statsJSON is the wire form of Stats: the durable result store
// round-trips results through JSON, and the per-node slices are
// unexported.
type statsJSON struct {
	Messages        uint64   `json:"messages"`
	BaseBytes       uint64   `json:"base"`
	MetaBytes       uint64   `json:"meta"`
	MemProtBytes    uint64   `json:"memprot"`
	ByCategory      []uint64 `json:"bycat"`
	PerNodeSent     []uint64 `json:"sent,omitempty"`
	PerNodeRecved   []uint64 `json:"recved,omitempty"`
	FaultDropped    uint64   `json:"fdrop,omitempty"`
	FaultCorrupted  uint64   `json:"fcorrupt,omitempty"`
	FaultDuplicated uint64   `json:"fdup,omitempty"`
	OutageDropped   uint64   `json:"odrop,omitempty"`
	LinkOutages     uint64   `json:"olink,omitempty"`
	NodeOutages     uint64   `json:"onode,omitempty"`
}

// MarshalJSON encodes the complete traffic accounting, per-node slices
// included.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		Messages:        s.Messages,
		BaseBytes:       s.BaseBytes,
		MetaBytes:       s.MetaBytes,
		MemProtBytes:    s.MemProtBytes,
		ByCategory:      s.ByCategory[:],
		PerNodeSent:     s.perNodeSent,
		PerNodeRecved:   s.perNodeRecved,
		FaultDropped:    s.FaultDropped,
		FaultCorrupted:  s.FaultCorrupted,
		FaultDuplicated: s.FaultDuplicated,
		OutageDropped:   s.OutageDropped,
		LinkOutages:     s.LinkOutages,
		NodeOutages:     s.NodeOutages,
	})
}

// UnmarshalJSON decodes Stats, rejecting a category vector whose length
// disagrees with this build (an older binary's entry) instead of
// silently dropping buckets.
func (s *Stats) UnmarshalJSON(data []byte) error {
	var d statsJSON
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.ByCategory) != int(numCategories) {
		return fmt.Errorf("interconnect: %d traffic categories on disk, want %d", len(d.ByCategory), int(numCategories))
	}
	*s = Stats{
		Messages:        d.Messages,
		BaseBytes:       d.BaseBytes,
		MetaBytes:       d.MetaBytes,
		MemProtBytes:    d.MemProtBytes,
		perNodeSent:     d.PerNodeSent,
		perNodeRecved:   d.PerNodeRecved,
		FaultDropped:    d.FaultDropped,
		FaultCorrupted:  d.FaultCorrupted,
		FaultDuplicated: d.FaultDuplicated,
		OutageDropped:   d.OutageDropped,
		LinkOutages:     d.LinkOutages,
		NodeOutages:     d.NodeOutages,
	}
	copy(s.ByCategory[:], d.ByCategory)
	return nil
}
