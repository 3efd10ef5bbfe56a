// Package secure implements each processor's secure-communication endpoint:
// the layer between the node's protocol logic and the interconnect that
// performs counter-mode authenticated encryption with pre-generated OTPs,
// attaches/validates security metadata, enforces replay protection via
// acknowledgments, and (when enabled) batches metadata per Section IV-C.
//
// The endpoint is also where the paper's three overhead sources are
// realized: OTP stalls delay message injection and delivery, inline
// metadata widens every data message, and ACK/Batched_MsgMAC packets add
// messages of their own.
//
// The endpoint sits on the simulation hot path, so it is written for zero
// steady-state allocations: wire messages come from the interconnect pool
// and carry their envelope and ciphertext inline, scheduled actions are
// pooled typed payloads (deferred) instead of closures, and the ACK/batch
// timers are engine-level cancellable timers instead of epoch-revalidated
// no-op events.
package secure

import (
	"fmt"
	"sync"

	"secmgpu/internal/config"
	"secmgpu/internal/core"
	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/sim"
)

// The message pool's inline ciphertext block must hold exactly one crypto
// block; a mismatch breaks seal() silently, so it is rejected at compile
// time.
var _ = [1]struct{}{}[crypto.BlockBytes-interconnect.CipherBlockBytes]

// Wire sizes in bytes. The data path matches the paper's accounting: each
// protected 64B transfer carries MsgCTR (8B), MsgMAC (8B) and sender ID
// (1B), and triggers an ACK echoing the MAC; batching replaces per-block
// MACs and ACKs with one Batched_MsgMAC message and one ACK per batch, plus
// a 1B batch-length field on the first block.
const (
	// HeaderBytes is the routing/protocol header on every message.
	HeaderBytes = 10
	// ReadReqBytes is a block read request (header + address/size).
	ReadReqBytes = 16
	// DataBytes is a data-bearing message: header + one 64B block.
	DataBytes = HeaderBytes + 64
	// CtrlBytes is a small control message (write ack, migration done).
	CtrlBytes = HeaderBytes
	// InlineMetaConv is the per-block metadata without batching:
	// MsgCTR 8B + MsgMAC 8B + sender ID 1B.
	InlineMetaConv = 17
	// InlineMetaBatch is the per-block metadata with batching:
	// MsgCTR 8B + sender ID 1B (the MAC moves to the Batched_MsgMAC).
	InlineMetaBatch = 9
	// BatchLenByte is the batch-length field on a batch's first block.
	BatchLenByte = 1
	// ACKBytes is a replay-protection acknowledgment: header + 8B echo.
	ACKBytes = HeaderBytes + 8
	// BatchMACBytes is a Batched_MsgMAC message: header + 8B MAC + 2B
	// batch id/length.
	BatchMACBytes = HeaderBytes + 8 + 2
	// MemProtBytes is the CPU-memory-protection metadata (counter + MAC)
	// accompanying data homed in untrusted host DRAM.
	MemProtBytes = 16
	// PageBlocks is the number of 64B blocks in a 4KB migrating page;
	// migration chunks batch at this granularity (one Batched_MsgMAC and
	// one ACK per page, Section IV-C).
	PageBlocks = 64
)

// SessionKey is the key exchanged between all processors at boot
// (Section IV-A). A fixed key keeps simulations reproducible.
var SessionKey = []byte("secmgpu-session!")

// Handler is the node logic above the endpoint.
type Handler interface {
	// HandleData receives a (decrypted) data-bearing message.
	HandleData(now sim.Cycle, msg *interconnect.Message)
	// HandleControl receives an unprotected control message.
	HandleControl(now sim.Cycle, msg *interconnect.Message)
}

// Options configures an endpoint from the system config.
type Options struct {
	Secure           bool
	Batching         bool
	MetadataTraffic  bool
	CPUMemProtection bool
	BatchSize        int
	BatchTimeout     sim.Cycle
	// Functional enables real encryption and MAC verification.
	Functional bool

	// Recovery enables the NACK/retransmission protocol: ACK timers with
	// bounded, exponentially backed-off retries on the sender, stale-batch
	// NACKs on the receiver, and poisoning after max retries. Off (the
	// zero value) preserves the detect-only legacy behaviour.
	Recovery bool
	// RetransTimeout is the base ACK timeout; retry k waits
	// RetransTimeout << k. Zero selects the default when Recovery is set.
	RetransTimeout sim.Cycle
	// RetransMaxRetries bounds retransmissions per unit before poisoning.
	RetransMaxRetries int
	// StaleBatchTimeout is how long the receiver holds an incomplete
	// batch before NACKing and abandoning it.
	StaleBatchTimeout sim.Cycle

	// ResyncThreshold is the per-peer failure streak (ACK timeouts plus
	// NACKs without an intervening clean ACK) that triggers a counter
	// RESYNC handshake. Zero disables resync. Requires Recovery.
	ResyncThreshold int
	// RekeyEpoch is the counter span of one key epoch; crossing it drains
	// the pair and rotates to the next epoch boundary via a rekeying
	// RESYNC. Zero disables rekeying.
	RekeyEpoch uint64
}

// OptionsFrom derives endpoint options from the system configuration.
func OptionsFrom(c config.Config, functional bool) Options {
	return Options{
		Secure:            c.Secure,
		Batching:          c.Secure && c.Batching,
		MetadataTraffic:   c.MetadataTraffic,
		CPUMemProtection:  c.CPUMemProtection,
		BatchSize:         c.BatchSize,
		BatchTimeout:      sim.Cycle(c.BatchFlushTimeout),
		Functional:        functional,
		Recovery:          c.Secure && c.Recovery,
		RetransTimeout:    sim.Cycle(c.RetransTimeout),
		RetransMaxRetries: c.RetransMaxRetries,
		StaleBatchTimeout: sim.Cycle(c.StaleBatchTimeout),
		ResyncThreshold:   c.ResyncThreshold,
		RekeyEpoch:        c.RekeyEpoch,
	}
}

// Stats aggregates endpoint-level security accounting.
type Stats struct {
	DataSent, DataReceived   uint64
	ACKsSent, ACKsReceived   uint64
	BatchMACsSent            uint64
	BatchesVerified          uint64
	BatchesFailed            uint64
	TimeoutFlushes           uint64
	DecryptOK, DecryptFailed uint64
	ReplaysDropped           uint64
	PendingACKPeak           int

	// Recovery-protocol counters.
	//
	// Retransmits counts blocks re-encrypted under fresh counters and
	// re-sent; AckTimeouts counts ACK-timer expirations that acted (each
	// triggers either a retransmission or poisoning).
	Retransmits uint64
	AckTimeouts uint64
	// NACKsSent/NACKsReceived count retransmit requests; StaleACKs counts
	// ACKs/NACKs that named a unit this sender no longer tracks (late
	// duplicates, or feedback for an already re-keyed batch).
	NACKsSent, NACKsReceived uint64
	StaleACKs                uint64
	// BatchesPoisoned/BlocksPoisoned count units abandoned after max
	// retries; the affected operations fail instead of hanging.
	BatchesPoisoned, BlocksPoisoned uint64
	// Quarantined counts blocks that lazy verification delivered before
	// their batch failed or expired — data the node consumed unverified.
	Quarantined uint64
	// MalformedDropped counts structurally invalid secure-channel
	// messages (nil or out-of-range envelopes, corrupted ACK/NACK frames)
	// discarded at the endpoint.
	MalformedDropped uint64

	// Resync/rekey handshake counters.
	//
	// ResyncsInitiated counts handshakes this sender launched (plain and
	// rekey); ResyncsCompleted counts acknowledged ones; ResyncsServed
	// counts proposals this receiver installed; ResyncRetries counts
	// re-proposals after a handshake timeout; StaleResyncs counts
	// duplicate or outdated handshake messages ignored by either side.
	ResyncsInitiated, ResyncsCompleted uint64
	ResyncsServed                      uint64
	ResyncRetries                      uint64
	StaleResyncs                       uint64
	// Rekeys counts completed epoch rotations; RekeyStallCycles is the
	// total time pairs spent draining and handshaking (send-blocked).
	Rekeys           uint64
	RekeyStallCycles uint64
	// HeldSends counts SendData calls parked while their peer's stream was
	// resyncing or draining, replayed after the handshake.
	HeldSends uint64
}

// Merge accumulates o into s (PendingACKPeak takes the maximum).
func (s *Stats) Merge(o *Stats) {
	s.DataSent += o.DataSent
	s.DataReceived += o.DataReceived
	s.ACKsSent += o.ACKsSent
	s.ACKsReceived += o.ACKsReceived
	s.BatchMACsSent += o.BatchMACsSent
	s.BatchesVerified += o.BatchesVerified
	s.BatchesFailed += o.BatchesFailed
	s.TimeoutFlushes += o.TimeoutFlushes
	s.DecryptOK += o.DecryptOK
	s.DecryptFailed += o.DecryptFailed
	s.ReplaysDropped += o.ReplaysDropped
	if o.PendingACKPeak > s.PendingACKPeak {
		s.PendingACKPeak = o.PendingACKPeak
	}
	s.Retransmits += o.Retransmits
	s.AckTimeouts += o.AckTimeouts
	s.NACKsSent += o.NACKsSent
	s.NACKsReceived += o.NACKsReceived
	s.StaleACKs += o.StaleACKs
	s.BatchesPoisoned += o.BatchesPoisoned
	s.BlocksPoisoned += o.BlocksPoisoned
	s.Quarantined += o.Quarantined
	s.MalformedDropped += o.MalformedDropped
	s.ResyncsInitiated += o.ResyncsInitiated
	s.ResyncsCompleted += o.ResyncsCompleted
	s.ResyncsServed += o.ResyncsServed
	s.ResyncRetries += o.ResyncRetries
	s.StaleResyncs += o.StaleResyncs
	s.Rekeys += o.Rekeys
	s.RekeyStallCycles += o.RekeyStallCycles
	s.HeldSends += o.HeldSends
}

// PoisonHandler is optionally implemented by the node logic to learn when a
// data block is abandoned after max retries. dst is the peer the block was
// addressed to; the handler decides whether the failed operation is local
// (fail it) or remote (tell the peer over the lossless control plane).
type PoisonHandler interface {
	HandlePoisoned(now sim.Cycle, dst interconnect.NodeID, kind interconnect.Kind, reqID uint64)
}

// convClass is the pseudo batch class identifying conventional (unbatched)
// per-block units in retransmission tracking and ACK/NACK envelopes.
const convClass = -1

// deferred is the pooled typed payload behind every action the endpoint
// schedules on the hot path — sending a sealed message once its pad is
// ready, emitting a Batched_MsgMAC after a batch's last block, delivering a
// retained message after an OTP stall. One union type with a single cached
// handler replaces a closure allocation per event.
type deferred struct {
	// send, when set, is handed to the fabric.
	send *interconnect.Message
	// closed, when set, emits a Batched_MsgMAC for (dst, class).
	closed *core.ClosedBatch
	dst    interconnect.NodeID
	class  int
	// deliver, when set, is a retained message to hand to the node logic
	// and then release back to the pool.
	deliver *interconnect.Message

	next *deferred
}

// batchTimer is the open-batch flush timer of one (class, peer) stream: the
// cancellable engine timer plus its pooled context. The context is reused
// the moment the timer is cancelled — a cancelled event's payload is never
// read again.
type batchTimer struct {
	timer sim.Timer
	ctx   *batchTimeoutCtx
}

// batchTimeoutCtx is the pooled payload of a batch flush timer.
type batchTimeoutCtx struct {
	dst   interconnect.NodeID
	class int
	peer  int
	id    uint64

	next *batchTimeoutCtx
}

// Endpoint is one processor's secure channel termination.
type Endpoint struct {
	engine  *sim.Engine
	fabric  *interconnect.Fabric
	node    interconnect.NodeID
	opts    Options
	handler Handler

	mgr otp.Manager
	gen *crypto.PadGenerator

	// Batching state, indexed [class][peer]: class 0 is direct block
	// access (n = BatchSize), class 1 is page migration (n = page blocks).
	batchers  [2][]*core.Batcher
	macStores [2][]*core.MACStore
	// batchTimers[class][peer] is the open batch's flush timer, cancelled
	// when the batch closes full.
	batchTimers [2][]batchTimer

	// lastSendAt enforces per-peer FIFO injection: a later data block
	// whose pad happened to be ready sooner still queues behind earlier
	// blocks of the same channel.
	lastSendAt []sim.Cycle

	// Receiver-side replay guard: on an in-order channel the per-peer
	// message counter must be strictly increasing, so a duplicate or
	// re-injected ciphertext is recognized by its stale MsgCTR.
	lastCtr []uint64
	ctrSeen []bool

	pendingACK int
	stats      Stats

	// Cached handlers: one conversion each at construction instead of one
	// allocation per scheduled event.
	defH  sim.Handler
	btoH  sim.Handler
	unitH sim.Handler
	scanH sim.Handler

	// Free lists recycling the pooled payload types above. The endpoint is
	// single-goroutine (one engine), so plain intrusive lists beat
	// sync.Pool here.
	defFree  *deferred
	btoFree  *batchTimeoutCtx
	unitFree *txUnit

	// Scratch blocks for functional crypto: seal() pads short payloads in
	// sealScratch, deliverData decrypts into plainScratch. Both are dead
	// once the call returns.
	sealScratch  [crypto.BlockBytes]byte
	plainScratch [crypto.BlockBytes]byte

	// Recovery state (nil/false unless opts.Recovery).
	//
	// units tracks every unACKed send unit — one batch, or one
	// conventional block — for retransmission. Each unit owns a
	// cancellable ACK timer; resolving, poisoning, or re-keying the unit
	// cancels it.
	units   map[unitKey]*txUnit
	poisonH PoisonHandler
	// scanArmed guards the self-quenching receiver-side stale-batch scan.
	scanArmed bool
	// recov is the per-peer resync/rekey state (see resync.go); nil unless
	// opts.Recovery.
	recov   []peerRecovery
	resyncH sim.Handler

	// released marks an endpoint whose retransmission bookkeeping went
	// back to unitPool.
	released bool
}

// unitKey identifies one retransmission unit: a batch (class 0 or 1) or a
// conventional block (convClass, keyed by its MsgCTR).
type unitKey struct {
	peer  int
	class int
	id    uint64
}

// txBlock retains what is needed to re-send one data block, in 24 bytes:
// kind is one of the three data kinds, so it fits a byte. The plaintext is
// kept apart (txUnit.payloads), since only functional runs seal it.
type txBlock struct {
	reqID uint64
	addr  uint64
	kind  uint8
	homed bool
}

// txUnit is one unACKed send unit. Units are pooled: resolveUnit and
// poison return them to the endpoint's free list.
type txUnit struct {
	dst    interconnect.NodeID
	peer   int
	class  int
	id     uint64
	blocks []txBlock
	// one backs blocks for a conventional (single-block) unit, so those
	// need no slice of their own.
	one [1]txBlock
	// payloads[i] is block i's plaintext. Only functional runs keep it:
	// seal ignores the payload otherwise.
	payloads [][]byte
	attempt  int
	timer    sim.Timer

	next *txUnit
}

// payload returns block i's plaintext, nil unless the run is functional.
func (u *txUnit) payload(i int) []byte {
	if i < len(u.payloads) {
		return u.payloads[i]
	}
	return nil
}

func (u *txUnit) key() unitKey { return unitKey{peer: u.peer, class: u.class, id: u.id} }

// New creates an endpoint. mgr may be nil when opts.Secure is false. The
// endpoint registers itself as the node's fabric deliverer.
func New(engine *sim.Engine, fabric *interconnect.Fabric, node interconnect.NodeID,
	opts Options, mgr otp.Manager, handler Handler) *Endpoint {
	if opts.Secure && mgr == nil {
		panic("secure: secure endpoint needs an OTP manager")
	}
	if opts.Recovery {
		if opts.RetransTimeout == 0 {
			opts.RetransTimeout = 50_000
		}
		if opts.RetransMaxRetries == 0 {
			opts.RetransMaxRetries = 6
		}
		if opts.StaleBatchTimeout == 0 {
			opts.StaleBatchTimeout = 25_000
		}
	}
	e := &Endpoint{
		engine:  engine,
		fabric:  fabric,
		node:    node,
		opts:    opts,
		handler: handler,
		mgr:     mgr,
	}
	e.defH = sim.HandlerFunc(e.onDeferred)
	e.btoH = sim.HandlerFunc(e.onBatchTimeout)
	e.unitH = sim.HandlerFunc(e.onUnitTimeout)
	e.scanH = sim.HandlerFunc(e.scanStale)
	peers := fabric.NumNodes() - 1
	e.lastSendAt = make([]sim.Cycle, peers)
	e.lastCtr = make([]uint64, peers)
	e.ctrSeen = make([]bool, peers)
	if opts.Recovery {
		if st, ok := unitPool.Get().(*unitStore); ok {
			e.units, e.unitFree = st.units, st.free
		} else {
			e.units = make(map[unitKey]*txUnit)
		}
		if ph, ok := handler.(PoisonHandler); ok {
			e.poisonH = ph
		}
		e.recov = make([]peerRecovery, peers)
		for i := range e.recov {
			e.recov[i].peer = i
		}
		e.resyncH = sim.HandlerFunc(e.onResyncTimeout)
	}
	if opts.Functional {
		gen, err := crypto.NewPadGenerator(SessionKey)
		if err != nil {
			panic(fmt.Sprintf("secure: session key: %v", err))
		}
		e.gen = gen
	}
	if opts.Secure && opts.Batching {
		for class, n := range [2]int{opts.BatchSize, PageBlocks} {
			e.batchers[class] = make([]*core.Batcher, peers)
			e.macStores[class] = make([]*core.MACStore, peers)
			e.batchTimers[class] = make([]batchTimer, peers)
			for i := 0; i < peers; i++ {
				e.batchers[class][i] = core.NewBatcher(n, opts.BatchTimeout, e.gen)
				e.macStores[class][i] = core.NewMACStore(PageBlocks, e.gen)
			}
		}
	}
	fabric.Register(node, e)
	return e
}

// Retention caps of one unitPool entry. Without them an entry ratchets up
// to the largest cell it ever served and keeps that memory in circulation:
// an uncapped pool raised a sweep's peak RSS by half.
const (
	// maxPooledUnits caps the free units an entry carries.
	maxPooledUnits = 128
	// maxPooledBlocks caps the blocks capacity their slices add up to
	// (a unit's one inline block aside); units past it are kept without
	// a slice.
	maxPooledBlocks = 512
)

// unitStore is one endpoint's retransmission bookkeeping parked between
// cells: the cleared units map (a cleared map keeps its groups) and a
// free list of at most maxPooledUnits zeroed units whose blocks slices
// hold at most maxPooledBlocks in all, none more than the releasing
// endpoint's batch size.
type unitStore struct {
	units  map[unitKey]*txUnit
	free   *txUnit
	n      int
	blocks int
}

// unitPool holds released endpoints' unitStores. New draws from it when
// Recovery is on. A sync.Pool because sweep workers run cells on parallel
// goroutines.
var unitPool sync.Pool

// Release ends the endpoint's life and returns its retransmission
// bookkeeping to the pool for the next endpoint: every unit, whether live
// in the units map, parked for a resync or already free, is zeroed and
// kept or dropped under the retention caps, and the units map is cleared.
// machine.System calls it when a cell ends, after releasing the engine, so
// no queued timer still names a unit. Afterwards SendData, SendControl and
// Deliver panic; Stats and OTPStats keep reporting the final state.
// Releasing twice is a no-op.
func (e *Endpoint) Release() {
	if st := e.detach(); st != nil {
		unitPool.Put(st)
	}
}

// detach marks the endpoint released and returns its bookkeeping as a pool
// entry; nil if already released or Recovery is off.
func (e *Endpoint) detach() *unitStore {
	if e.released {
		return nil
	}
	e.released = true
	if e.units == nil {
		return nil
	}
	st := &unitStore{units: e.units}
	maxBlocks := e.unitBlocks(0)
	keep := func(u *txUnit) {
		if st.n == maxPooledUnits {
			return
		}
		blocks := u.blocks
		switch c := cap(blocks); {
		case c <= 1:
			// Empty, or backed by the unit's own one.
		case c > maxBlocks || st.blocks+c > maxPooledBlocks:
			blocks = nil
		default:
			st.blocks += c
		}
		// Blocks hold no pointers and a unit reads only those it appended,
		// so they need no clearing; plaintexts are dropped.
		*u = txUnit{blocks: blocks[:0], next: st.free}
		st.free = u
		st.n++
	}
	for u := e.unitFree; u != nil; {
		next := u.next
		keep(u)
		u = next
	}
	for _, u := range e.units {
		keep(u)
	}
	for i := range e.recov {
		for _, u := range e.recov[i].parked {
			keep(u)
		}
		e.recov[i].parked = nil
	}
	clear(st.units)
	e.units, e.unitFree = nil, nil
	return st
}

// mustLive panics when the endpoint has been released.
func (e *Endpoint) mustLive() {
	if e.released {
		panic("secure: endpoint used after Release")
	}
}

// Stats returns the endpoint's accumulated statistics.
func (e *Endpoint) Stats() *Stats { return &e.stats }

// OTPStats returns the OTP manager's outcome statistics (nil when
// unsecure).
func (e *Endpoint) OTPStats() *otp.Stats {
	if e.mgr == nil {
		return nil
	}
	return e.mgr.Stats()
}

// PeerIndex maps another node's ID to this endpoint's dense peer index.
func (e *Endpoint) PeerIndex(other interconnect.NodeID) int {
	return PeerIndex(e.node, other)
}

// PeerIndex maps other to the dense peer index used by self's pad tables:
// all nodes except self, in ID order.
func PeerIndex(self, other interconnect.NodeID) int {
	if self == other {
		panic("secure: a node is not its own peer")
	}
	if other < self {
		return int(other)
	}
	return int(other) - 1
}

// PeerID is the inverse of PeerIndex.
func PeerID(self interconnect.NodeID, index int) interconnect.NodeID {
	if index < int(self) {
		return interconnect.NodeID(index)
	}
	return interconnect.NodeID(index + 1)
}

// newDeferred takes a deferred from the free list (or allocates the first
// few until the list warms up).
func (e *Endpoint) newDeferred() *deferred {
	d := e.defFree
	if d == nil {
		return &deferred{}
	}
	e.defFree = d.next
	d.next = nil
	return d
}

// runDeferred executes a deferred action and returns it to the free list.
func (e *Endpoint) runDeferred(d *deferred) {
	if d.send != nil {
		e.fabric.Send(d.send)
	}
	if d.closed != nil {
		e.sendBatchMAC(d.dst, d.class, d.closed)
	}
	if m := d.deliver; m != nil {
		e.handler.HandleData(e.engine.Now(), m)
		m.Release()
	}
	*d = deferred{next: e.defFree}
	e.defFree = d
}

// onDeferred is the cached handler behind every at() call.
func (e *Endpoint) onDeferred(ev sim.Event) { e.runDeferred(ev.Payload.(*deferred)) }

// at runs the deferred action now (when the cycle is current) or schedules
// it.
func (e *Endpoint) at(cycle sim.Cycle, d *deferred) {
	if cycle <= e.engine.Now() {
		e.runDeferred(d)
		return
	}
	e.engine.Schedule(cycle, e.defH, d)
}

// SendControl transmits an unprotected control message (read requests,
// write acks, migration control). Control messages carry no data payload
// and follow the paper in staying outside the OTP path.
func (e *Endpoint) SendControl(dst interconnect.NodeID, kind interconnect.Kind, reqID, addr uint64, size int) {
	e.mustLive()
	msg := interconnect.AcquireMessage()
	msg.Kind = kind
	msg.Category = categoryOf(kind)
	msg.Src, msg.Dst = e.node, dst
	msg.BaseBytes = size
	msg.ReqID, msg.Addr = reqID, addr
	e.fabric.Send(msg)
}

// SendData transmits one protected 64B data block (a read response, write
// data, or page-migration chunk). When the system is secure this consumes a
// send OTP — possibly stalling on pad generation — attaches metadata, and
// participates in batching and replay protection. Migration chunks
// (KindMigrChunk) batch at page granularity; everything else batches at the
// configured n. homedInCPUMemory marks blocks whose backing store is the
// untrusted host DRAM, which drags memory-protection metadata across the
// bus.
func (e *Endpoint) SendData(dst interconnect.NodeID, kind interconnect.Kind, reqID, addr uint64,
	payload []byte, homedInCPUMemory bool) {
	e.mustLive()
	if e.opts.Secure && e.resyncBlocked(dst, kind, reqID, addr, payload, homedInCPUMemory) {
		// The peer's stream is mid-resync or mid-drain: the send is held
		// and replays, in order, once the handshake completes.
		return
	}
	msg := interconnect.AcquireMessage()
	msg.Kind = kind
	msg.Category = interconnect.CatData
	msg.Src, msg.Dst = e.node, dst
	msg.BaseBytes = DataBytes
	msg.ReqID, msg.Addr = reqID, addr
	e.stats.DataSent++
	if !e.opts.Secure {
		e.fabric.Send(msg)
		return
	}

	peer := e.PeerIndex(dst)
	now := e.engine.Now()
	use := e.mgr.UseSend(now, peer)
	e.noteSendCtr(peer, use.Ctr)
	sendAt := now + use.Stall + 1 // +1: the XOR once the pad is ready
	if sendAt < e.lastSendAt[peer] {
		sendAt = e.lastSendAt[peer]
	}
	e.lastSendAt[peer] = sendAt

	env := msg.AttachSec()
	env.MsgCTR, env.SenderID = use.Ctr, e.node
	mac := e.seal(msg, env, dst, payload)

	var closed *core.ClosedBatch
	var class int
	if e.opts.Batching {
		class = batchClass(kind)
		tag, c := e.batchers[class][peer].Add(sendAt, mac)
		env.BatchClass = class
		env.BatchID = tag.BatchID
		env.BatchIndex = tag.Index
		if e.opts.MetadataTraffic {
			msg.MetaBytes = InlineMetaBatch
			if tag.First {
				msg.MetaBytes += BatchLenByte
			}
		}
		closed = c
		if c == nil && tag.First && e.opts.BatchTimeout > 0 {
			e.scheduleBatchTimeout(dst, class, peer, tag.BatchID, sendAt)
		}
		if c != nil {
			env.BatchLen = c.Len
			// The batch closed full: its flush timer (none for a
			// single-block batch) dies here, and its context is free for
			// the next open batch.
			e.cancelBatchTimer(class, peer)
		}
		if e.opts.Recovery {
			u := e.trackBlock(unitKey{peer: peer, class: class, id: tag.BatchID}, dst,
				txBlock{kind: uint8(kind), reqID: reqID, addr: addr, homed: homedInCPUMemory}, payload)
			if c != nil {
				e.armUnitTimer(u, sendAt)
			}
		}
	} else {
		if e.opts.MetadataTraffic {
			msg.MetaBytes = InlineMetaConv
		}
		if e.opts.Recovery {
			u := e.trackBlock(unitKey{peer: peer, class: convClass, id: use.Ctr}, dst,
				txBlock{kind: uint8(kind), reqID: reqID, addr: addr, homed: homedInCPUMemory}, payload)
			e.armUnitTimer(u, sendAt)
		}
	}
	if homedInCPUMemory && e.opts.CPUMemProtection && e.opts.MetadataTraffic {
		msg.MemProtBytes = MemProtBytes
	}

	e.pendingACK++
	if e.pendingACK > e.stats.PendingACKPeak {
		e.stats.PendingACKPeak = e.pendingACK
	}

	d := e.newDeferred()
	d.send = msg
	if closed != nil {
		d.closed, d.dst, d.class = closed, dst, class
	}
	e.at(sendAt, d)
}

// seal encrypts payload into the message's inline ciphertext block under
// the envelope's counter (functional runs) and installs the per-block MAC,
// which it also returns for batching.
func (e *Endpoint) seal(msg *interconnect.Message, env *interconnect.SecEnvelope,
	dst interconnect.NodeID, payload []byte) [crypto.MACBytes]byte {
	var mac [crypto.MACBytes]byte
	if e.gen != nil {
		pad := e.gen.Generate(env.MsgCTR, uint16(e.node), uint16(dst))
		src := payload
		if len(src) != crypto.BlockBytes {
			e.sealScratch = [crypto.BlockBytes]byte{}
			copy(e.sealScratch[:], payload)
			src = e.sealScratch[:]
		}
		ct := msg.CipherBuf()
		crypto.Encrypt(ct, src, &pad)
		env.Ciphertext = ct
		mac = e.gen.MAC(ct, &pad)
	}
	env.MAC = mac
	return mac
}

// newUnit takes a txUnit from the free list, retaining its blocks slice
// capacity across reuses.
func (e *Endpoint) newUnit() *txUnit {
	u := e.unitFree
	if u == nil {
		return &txUnit{}
	}
	e.unitFree = u.next
	u.next = nil
	return u
}

// freeUnit clears a retired unit (dropping payload references so freed
// blocks do not pin memory) and returns it to the free list. The unit's
// timer must already be cancelled or spent; a cancelled timer event still
// queued holds only a pointer the engine will discard unread.
func (e *Endpoint) freeUnit(u *txUnit) {
	clear(u.payloads)
	*u = txUnit{blocks: u.blocks[:0], payloads: u.payloads[:0], next: e.unitFree}
	e.unitFree = u
}

// trackBlock appends one block to its retransmission unit, creating the
// unit on first use. A functional run also keeps the block's plaintext.
func (e *Endpoint) trackBlock(key unitKey, dst interconnect.NodeID, blk txBlock, payload []byte) *txUnit {
	u, ok := e.units[key]
	if !ok {
		u = e.newUnit()
		if n := e.unitBlocks(key.class); n == 1 && cap(u.blocks) == 0 {
			u.blocks = u.one[:0]
		} else if cap(u.blocks) < n {
			u.blocks = make([]txBlock, 0, n)
		}
		u.dst, u.peer, u.class, u.id = dst, key.peer, key.class, key.id
		e.units[key] = u
		if e.recov != nil {
			e.recov[key.peer].openUnits++
		}
	}
	u.blocks = append(u.blocks, blk)
	if e.gen != nil {
		u.payloads = append(u.payloads, payload)
	}
	return u
}

// unitBlocks is the block count of a full unit of the given class.
func (e *Endpoint) unitBlocks(class int) int {
	switch class {
	case convClass:
		return 1
	case 1:
		return PageBlocks
	default:
		return e.opts.BatchSize
	}
}

// batchClass routes migration chunks to the page-granularity batcher.
func batchClass(kind interconnect.Kind) int {
	if kind == interconnect.KindMigrChunk {
		return 1
	}
	return 0
}

// newBatchTimeoutCtx / freeBatchTimeoutCtx recycle batch-timer payloads.
func (e *Endpoint) newBatchTimeoutCtx() *batchTimeoutCtx {
	c := e.btoFree
	if c == nil {
		return &batchTimeoutCtx{}
	}
	e.btoFree = c.next
	c.next = nil
	return c
}

func (e *Endpoint) freeBatchTimeoutCtx(c *batchTimeoutCtx) {
	*c = batchTimeoutCtx{next: e.btoFree}
	e.btoFree = c
}

// scheduleBatchTimeout arms the open batch's flush timer. The timer is
// cancelled if the batch closes full first (SendData), so unlike the old
// epoch-checked events a healthy stream leaves no dead timeouts churning
// the queue.
func (e *Endpoint) scheduleBatchTimeout(dst interconnect.NodeID, class, peer int, batchID uint64, openedAt sim.Cycle) {
	ctx := e.newBatchTimeoutCtx()
	ctx.dst, ctx.class, ctx.peer, ctx.id = dst, class, peer, batchID
	bt := &e.batchTimers[class][peer]
	bt.ctx = ctx
	bt.timer = e.engine.ScheduleTimer(openedAt+e.opts.BatchTimeout, e.btoH, ctx)
}

// onBatchTimeout flushes a batch still open when its timer expires. The
// OpenID re-check is defensive (cancellation already guarantees it for
// every close path).
func (e *Endpoint) onBatchTimeout(ev sim.Event) {
	ctx := ev.Payload.(*batchTimeoutCtx)
	dst, class, peer, batchID := ctx.dst, ctx.class, ctx.peer, ctx.id
	e.freeBatchTimeoutCtx(ctx)
	b := e.batchers[class][peer]
	if id, open := b.OpenID(); open && id == batchID {
		if cb := b.Flush(); cb != nil {
			e.stats.TimeoutFlushes++
			e.sendBatchMAC(dst, class, cb)
			if e.opts.Recovery {
				if u, ok := e.units[unitKey{peer: peer, class: class, id: batchID}]; ok {
					at := e.engine.Now()
					if e.lastSendAt[peer] > at {
						at = e.lastSendAt[peer]
					}
					e.armUnitTimer(u, at)
				}
			}
		}
	}
}

func (e *Endpoint) sendBatchMAC(dst interconnect.NodeID, class int, cb *core.ClosedBatch) {
	e.stats.BatchMACsSent++
	// In latency-only mode (MetadataTraffic off) the receiver still needs
	// the verification event, so the message travels with zero bytes.
	size := 0
	if e.opts.MetadataTraffic {
		size = BatchMACBytes
	}
	msg := interconnect.AcquireMessage()
	msg.Kind = interconnect.KindBatchMAC
	msg.Category = interconnect.CatBatchMAC
	msg.Src, msg.Dst = e.node, dst
	msg.MetaBytes = size
	env := msg.AttachSec()
	env.SenderID = e.node
	env.BatchClass = class
	env.BatchID = cb.BatchID
	env.BatchLen = cb.Len
	env.MAC = cb.MAC
	e.fabric.Send(msg)
}

// Deliver implements interconnect.Deliverer.
func (e *Endpoint) Deliver(now sim.Cycle, msg *interconnect.Message) {
	e.mustLive()
	switch msg.Kind {
	case interconnect.KindDataResp, interconnect.KindWriteReq, interconnect.KindMigrChunk:
		e.deliverData(now, msg)
	case interconnect.KindSecACK:
		if e.opts.Recovery && msg.Sec != nil {
			if msg.Corrupted {
				// A damaged ACK frame is discarded; the unit's timer
				// retransmits and a later ACK resolves it.
				e.stats.MalformedDropped++
				return
			}
			e.stats.ACKsReceived++
			e.resolveUnit(unitKey{peer: e.PeerIndex(msg.Src), class: msg.Sec.BatchClass, id: msg.Sec.BatchID})
			return
		}
		e.stats.ACKsReceived++
		if e.pendingACK > 0 {
			e.pendingACK--
		}
	case interconnect.KindSecNACK:
		if !e.opts.Recovery || msg.Sec == nil || msg.Corrupted {
			e.stats.MalformedDropped++
			return
		}
		e.stats.NACKsReceived++
		e.onNACK(unitKey{peer: e.PeerIndex(msg.Src), class: msg.Sec.BatchClass, id: msg.Sec.BatchID})
	case interconnect.KindBatchMAC:
		// A malformed Batched_MsgMAC (no envelope, or one for a stream
		// this endpoint does not run) is dropped, not dereferenced: an
		// adversary must not be able to panic a node.
		if msg.Sec == nil || !e.opts.Secure || !e.opts.Batching ||
			msg.Sec.BatchClass < 0 || msg.Sec.BatchClass >= len(e.macStores) {
			e.stats.MalformedDropped++
			return
		}
		peer := e.PeerIndex(msg.Src)
		cb := &core.ClosedBatch{BatchID: msg.Sec.BatchID, Len: msg.Sec.BatchLen, MAC: msg.Sec.MAC}
		if msg.Corrupted {
			// The fault damaged the Batched_MsgMAC itself; verification
			// must fail so the batch is NACKed and re-sent.
			cb.MAC[0] ^= 0xff
		}
		if res := e.macStores[msg.Sec.BatchClass][peer].OnBatchMAC(now, cb); res != nil {
			e.finishBatch(msg.Src, msg.Sec.BatchClass, res)
		}
		e.armStaleScan()
	case interconnect.KindSecResync:
		e.onResyncRequest(now, msg)
	case interconnect.KindSecResyncAck:
		e.onResyncAck(now, msg)
	default:
		e.handler.HandleControl(now, msg)
	}
}

func (e *Endpoint) deliverData(now sim.Cycle, msg *interconnect.Message) {
	e.stats.DataReceived++
	if !e.opts.Secure || msg.Sec == nil {
		e.handler.HandleData(now, msg)
		return
	}
	peer := e.PeerIndex(msg.Src)
	if e.ctrSeen[peer] && msg.Sec.MsgCTR <= e.lastCtr[peer] {
		// A counter at or below the last accepted one can only be a
		// replayed or re-injected packet; it is dropped without
		// consuming a pad or reaching the node.
		e.stats.ReplaysDropped++
		return
	}
	e.lastCtr[peer] = msg.Sec.MsgCTR
	e.ctrSeen[peer] = true
	use := e.mgr.UseRecv(now, peer, msg.Sec.MsgCTR)
	deliverAt := now + use.Stall + 1

	var mac [crypto.MACBytes]byte
	corrupt := msg.Corrupted
	if e.gen != nil {
		pad := e.gen.Generate(msg.Sec.MsgCTR, uint16(msg.Src), uint16(e.node))
		// The plaintext only validates the decrypt path; it is computed
		// into a scratch block and dropped.
		crypto.Encrypt(e.plainScratch[:], msg.Sec.Ciphertext, &pad)
		mac = e.gen.MAC(msg.Sec.Ciphertext, &pad)
		if !e.opts.Batching && mac != msg.Sec.MAC {
			corrupt = true
		}
	}

	if e.opts.Batching {
		// Lazy verification (Section IV-C): the block is delivered as
		// soon as it is decrypted; the MsgMAC storage verifies the
		// batch when complete and only then ACKs.
		if corrupt && e.gen == nil {
			// Timing-only runs have no real ciphertext: model the damage
			// by flipping the computed MsgMAC so batch verification fails.
			mac[0] ^= 0xff
		}
		tag := core.BlockTag{BatchID: msg.Sec.BatchID, Index: msg.Sec.BatchIndex, First: msg.Sec.BatchIndex == 0}
		if res := e.macStores[msg.Sec.BatchClass][peer].OnBlock(now, tag, mac); res != nil {
			e.finishBatch(msg.Src, msg.Sec.BatchClass, res)
		}
		e.armStaleScan()
	} else {
		if corrupt {
			e.stats.DecryptFailed++
			if e.opts.Recovery {
				// The block is damaged: request a fresh copy instead of
				// acknowledging, and never hand the data to the node.
				e.sendNACK(msg.Src, convClass, msg.Sec.MsgCTR)
				return
			}
		} else if e.gen != nil {
			e.stats.DecryptOK++
		}
		e.sendACK(msg.Src, convClass, msg.Sec.MsgCTR)
	}

	if use.Stall == 0 {
		// Only the XOR remains; deliver without an extra event.
		e.handler.HandleData(now, msg)
		return
	}
	// The message outlives this Deliver call (deliverAt > now whenever
	// use.Stall > 0): take ownership from the fabric and release after the
	// node logic consumed it.
	msg.Retain()
	d := e.newDeferred()
	d.deliver = msg
	e.engine.Schedule(deliverAt, e.defH, d)
}

func (e *Endpoint) finishBatch(src interconnect.NodeID, class int, res *core.VerifyResult) {
	if res.OK {
		e.stats.BatchesVerified++
		e.stats.DecryptOK += uint64(res.Len)
	} else {
		e.stats.BatchesFailed++
		e.stats.DecryptFailed += uint64(res.Len)
		if e.opts.Recovery {
			// Every covered block was already consumed under lazy
			// verification; account for it and request a clean re-send.
			e.stats.Quarantined += uint64(res.Len)
			e.sendNACK(src, class, res.BatchID)
			return
		}
	}
	e.sendACK(src, class, res.BatchID)
}

func (e *Endpoint) sendACK(dst interconnect.NodeID, class int, id uint64) {
	e.stats.ACKsSent++
	e.sendFeedback(dst, interconnect.KindSecACK, class, id)
}

func (e *Endpoint) sendNACK(dst interconnect.NodeID, class int, id uint64) {
	e.stats.NACKsSent++
	e.sendFeedback(dst, interconnect.KindSecNACK, class, id)
}

// sendFeedback transmits an ACK or NACK. Under recovery the frame carries
// an envelope naming the acknowledged unit (same ACKBytes wire size: the 8B
// echo field identifies the batch instead of the MAC); the legacy protocol
// keeps its anonymous in-order ACKs.
func (e *Endpoint) sendFeedback(dst interconnect.NodeID, kind interconnect.Kind, class int, id uint64) {
	size := 0
	if e.opts.MetadataTraffic {
		size = ACKBytes
	}
	msg := interconnect.AcquireMessage()
	msg.Kind = kind
	msg.Category = interconnect.CatSecACK
	msg.Src, msg.Dst = e.node, dst
	msg.MetaBytes = size
	if e.opts.Recovery {
		env := msg.AttachSec()
		env.SenderID = e.node
		env.BatchClass = class
		env.BatchID = id
	}
	e.fabric.Send(msg)
}

// resolveUnit retires a unit on ACK: its blocks are confirmed received and
// verified, so the pending-ACK debt is repaid and the ACK timer dies.
func (e *Endpoint) resolveUnit(key unitKey) {
	u, ok := e.units[key]
	if !ok {
		e.stats.StaleACKs++
		return
	}
	u.timer.Cancel()
	delete(e.units, key)
	e.pendingACK -= len(u.blocks)
	if e.pendingACK < 0 {
		e.pendingACK = 0
	}
	e.freeUnit(u)
	e.unitResolved(key.peer, true)
}

// onNACK retransmits the named unit immediately (or poisons it when the
// retry budget is spent). A NACK for an unknown unit — already resolved, or
// already re-keyed by a timer — is stale and ignored.
func (e *Endpoint) onNACK(key unitKey) {
	u, ok := e.units[key]
	if !ok {
		e.stats.StaleACKs++
		return
	}
	if e.bumpFailure(key.peer) {
		// The streak crossed the resync threshold: the unit was parked by
		// the handshake launch and re-sends after the base is agreed.
		return
	}
	if u.attempt >= e.opts.RetransMaxRetries {
		e.poison(u)
		return
	}
	e.retransmit(u)
}

// armUnitTimer schedules the unit's ACK timeout with exponential backoff,
// cancelling any previous shot so each unit owns at most one live timer.
func (e *Endpoint) armUnitTimer(u *txUnit, sentAt sim.Cycle) {
	if !e.opts.Recovery {
		return
	}
	shift := uint(u.attempt)
	if shift > 6 {
		shift = 6
	}
	u.timer.Cancel()
	u.timer = e.engine.ScheduleTimer(sentAt+(e.opts.RetransTimeout<<shift), e.unitH, u)
}

// onUnitTimeout fires when a unit's ACK never arrived. The timer is
// cancelled whenever its unit is resolved, poisoned, or re-keyed, so a
// firing timer always names a live unit — no revalidation needed.
func (e *Endpoint) onUnitTimeout(ev sim.Event) {
	u := ev.Payload.(*txUnit)
	e.stats.AckTimeouts++
	if e.bumpFailure(u.peer) {
		// Parked by the resync launch; the handshake re-sends it.
		return
	}
	if u.attempt >= e.opts.RetransMaxRetries {
		e.poison(u)
		return
	}
	e.retransmit(u)
}

// retransmit re-sends every block of the unit. Pads are one-time and the
// receiver's counter guard rejects stale counters, so each block is
// re-encrypted under a fresh MsgCTR; a batch additionally re-keys to a
// fresh BatchID (with a fresh Batched_MsgMAC) so the copy never collides
// with the receiver's state for the lost original.
func (e *Endpoint) retransmit(u *txUnit) {
	u.attempt++
	u.timer.Cancel()
	// If the unit's batch is still open (a NACK can outrun the flush), the
	// re-send supersedes it: drop the open remainder and its flush timer so
	// no Batched_MsgMAC for the dead identity escapes later.
	e.discardOpenBatch(u)
	e.stats.Retransmits += uint64(len(u.blocks))
	delete(e.units, u.key())
	peer := u.peer

	if u.class == convClass {
		blk := u.blocks[0]
		now := e.engine.Now()
		use := e.mgr.UseSend(now, peer)
		e.noteSendCtr(peer, use.Ctr)
		sendAt := now + use.Stall + 1
		if sendAt < e.lastSendAt[peer] {
			sendAt = e.lastSendAt[peer]
		}
		e.lastSendAt[peer] = sendAt
		u.id = use.Ctr
		e.units[u.key()] = u
		msg := e.dataMessage(u.dst, blk)
		env := msg.AttachSec()
		env.MsgCTR, env.SenderID = use.Ctr, e.node
		e.seal(msg, env, u.dst, u.payload(0))
		if e.opts.MetadataTraffic {
			msg.MetaBytes = InlineMetaConv
		}
		d := e.newDeferred()
		d.send = msg
		e.at(sendAt, d)
		e.armUnitTimer(u, sendAt)
		return
	}

	n := len(u.blocks)
	u.id = e.batchers[u.class][peer].AllocID()
	e.units[u.key()] = u
	var macs []byte
	var lastSend sim.Cycle
	for i, blk := range u.blocks {
		now := e.engine.Now()
		use := e.mgr.UseSend(now, peer)
		e.noteSendCtr(peer, use.Ctr)
		sendAt := now + use.Stall + 1
		if sendAt < e.lastSendAt[peer] {
			sendAt = e.lastSendAt[peer]
		}
		e.lastSendAt[peer] = sendAt
		lastSend = sendAt
		msg := e.dataMessage(u.dst, blk)
		env := msg.AttachSec()
		env.MsgCTR, env.SenderID = use.Ctr, e.node
		env.BatchClass, env.BatchID, env.BatchIndex = u.class, u.id, i
		mac := e.seal(msg, env, u.dst, u.payload(i))
		macs = append(macs, mac[:]...)
		if e.opts.MetadataTraffic {
			msg.MetaBytes = InlineMetaBatch
			if i == 0 {
				msg.MetaBytes += BatchLenByte
			}
		}
		if i == n-1 {
			env.BatchLen = n
		}
		d := e.newDeferred()
		d.send = msg
		e.at(sendAt, d)
	}
	cb := &core.ClosedBatch{BatchID: u.id, Len: n, MAC: core.BatchMAC(e.gen, macs)}
	d := e.newDeferred()
	d.closed, d.dst, d.class = cb, u.dst, u.class
	e.at(lastSend, d)
	e.armUnitTimer(u, lastSend)
}

// dataMessage rebuilds the wire message for one retransmitted block.
func (e *Endpoint) dataMessage(dst interconnect.NodeID, blk txBlock) *interconnect.Message {
	msg := interconnect.AcquireMessage()
	msg.Kind = interconnect.Kind(blk.kind)
	msg.Category = interconnect.CatData
	msg.Src, msg.Dst = e.node, dst
	msg.BaseBytes = DataBytes
	msg.ReqID, msg.Addr = blk.reqID, blk.addr
	if blk.homed && e.opts.CPUMemProtection && e.opts.MetadataTraffic {
		msg.MemProtBytes = MemProtBytes
	}
	return msg
}

// poison abandons a unit after max retries: the pending-ACK debt is repaid,
// the blocks are surfaced in Stats, and the node logic is told so affected
// operations fail instead of hanging the simulation.
func (e *Endpoint) poison(u *txUnit) {
	u.timer.Cancel()
	e.discardOpenBatch(u)
	delete(e.units, u.key())
	e.unitResolved(u.peer, false)
	e.pendingACK -= len(u.blocks)
	if e.pendingACK < 0 {
		e.pendingACK = 0
	}
	e.stats.BatchesPoisoned++
	e.stats.BlocksPoisoned += uint64(len(u.blocks))
	if e.poisonH != nil {
		now := e.engine.Now()
		for _, blk := range u.blocks {
			e.poisonH.HandlePoisoned(now, u.dst, interconnect.Kind(blk.kind), blk.reqID)
		}
	}
	e.freeUnit(u)
}

// armStaleScan schedules the receiver-side stale-batch sweep. The scan is
// self-quenching: it re-arms only while incomplete batches remain, so a
// drained endpoint schedules no further events.
func (e *Endpoint) armStaleScan() {
	if !e.opts.Recovery || !e.opts.Batching || e.scanArmed {
		return
	}
	e.scanArmed = true
	e.engine.Schedule(e.engine.Now()+e.opts.StaleBatchTimeout, e.scanH, nil)
}

// scanStale NACKs and abandons every incomplete batch older than the stale
// timeout: blocks lost on the wire leave holes no Batched_MsgMAC can close,
// and a lost Batched_MsgMAC leaves a complete batch unverifiable — either
// way the sender must re-send, and hoarding the remains would exhaust the
// MsgMAC storage.
func (e *Endpoint) scanStale(sim.Event) {
	e.scanArmed = false
	now := e.engine.Now()
	rearm := false
	for class := range e.macStores {
		for peer, store := range e.macStores[class] {
			if store == nil {
				continue
			}
			for _, ex := range store.Expire(now, e.opts.StaleBatchTimeout) {
				e.stats.Quarantined += uint64(ex.Received)
				e.sendNACK(PeerID(e.node, peer), class, ex.BatchID)
			}
			if store.Filling() > 0 {
				rearm = true
			}
		}
	}
	if rearm {
		e.scanArmed = true
		e.engine.Schedule(now+e.opts.StaleBatchTimeout, e.scanH, nil)
	}
}

// PendingACK returns the sender's current unacknowledged-block debt.
func (e *Endpoint) PendingACK() int { return e.pendingACK }

// OpenUnits returns the retransmission units still awaiting resolution
// (always zero with recovery off or after a drained recovery run).
func (e *Endpoint) OpenUnits() int { return len(e.units) }

// FillingBatches returns the incomplete batches across all MsgMAC stores.
func (e *Endpoint) FillingBatches() int {
	total := 0
	for class := range e.macStores {
		for _, store := range e.macStores[class] {
			if store != nil {
				total += store.Filling()
			}
		}
	}
	return total
}

func categoryOf(kind interconnect.Kind) interconnect.Category {
	switch kind {
	case interconnect.KindReadReq:
		return interconnect.CatData
	default:
		return interconnect.CatControl
	}
}
