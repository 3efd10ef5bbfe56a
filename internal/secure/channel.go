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
// steady-state allocations: wire messages come from the fabric's free
// list and carry their envelope and ciphertext inline, scheduled actions are
// pooled typed payloads (deferred) instead of closures, and the ACK/batch
// timers are engine-level cancellable timers instead of epoch-revalidated
// no-op events.
package secure

import (
	"fmt"
	"slices"

	"secmgpu/internal/config"
	"secmgpu/internal/core"
	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/sim"
)

// xorCycles is the cost of applying a ready pad to a block, on both the
// seal and the decrypt side.
const xorCycles = 1

// A message's ciphertext block must hold exactly one crypto block; a
// mismatch breaks seal() silently, so it is rejected at compile time.
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

// Merge accumulates o into s.
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
	// closed, when hasClosed is set, is emitted as a Batched_MsgMAC for
	// (dst, class).
	closed    core.ClosedBatch
	hasClosed bool
	dst       interconnect.NodeID
	class     int
	// deliver, when set, is a retained message to hand to the node logic
	// and then free back to the fabric.
	deliver *interconnect.Message

	next *deferred
}

// batchTimer is the open-batch flush timer of one (class, peer) stream and
// the timer's own payload: it names the batch it flushes. A stream has at
// most one open batch, and its timer dies when the batch closes, so the
// slot is never overwritten while its timer can still fire.
type batchTimer struct {
	timer sim.Timer
	class int
	peer  int
	id    uint64
}

// Storage is an endpoint's recyclable state, kept for the next endpoint
// built on it: the per-peer tables, which the endpoint uses in place, with
// their batchers, MAC stores and units tables, and the free units and
// deferreds it lends the endpoint, zeroed, under the caps in recovery.go.
// The zero value is empty storage.
type Storage struct {
	// The per-peer tables, indexed by peer.
	//
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

	// recov is the per-peer resync/rekey state (see resync.go); empty
	// unless cfg.Secure.
	recov []peerRecovery

	// units[class-convClass][peer] tracks every unACKed send unit of
	// (peer, class) — one batch, or one conventional block — by its ID:
	// the BatchID its batcher allocated, or a conventional block's MsgCTR.
	// Each unit owns a cancellable ACK timer; resolving, poisoning, or
	// re-keying the unit cancels it. Empty unless cfg.Secure.
	units [3][]sim.IDTable[*txUnit]

	free      *txUnit
	deferreds *deferred

	// scratch holds functional crypto's scratch blocks: seal() pads short
	// payloads in scratch[0], deliverData decrypts into scratch[1]. Both
	// are dead once the call returns.
	scratch [2][crypto.BlockBytes]byte
}

// Endpoint is one processor's secure channel termination.
type Endpoint struct {
	engine  *sim.Engine
	fabric  *interconnect.Fabric
	node    interconnect.NodeID
	handler Handler

	// cfg is the system's configuration, shared by every endpoint. A
	// secure endpoint runs the NACK/retransmission protocol (see
	// recovery.go) on its timers. batching is cfg.Secure && cfg.Batching.
	cfg      *config.Config
	batching bool

	mgr otp.Manager
	gen *crypto.PadGenerator

	// st holds the per-peer tables (st.batchers, st.lastSendAt, ...),
	// which the endpoint uses in place, and lent it the retransmission
	// bookkeeping; nil once released.
	st *Storage

	pendingACK int
	stats      Stats

	// Cached handlers: one conversion each at construction instead of one
	// allocation per scheduled event.
	defH  sim.Handler
	btoH  sim.Handler
	unitH sim.Handler
	scanH sim.Handler

	// Free lists recycling deferred payloads and retransmission units. The
	// endpoint is single-goroutine (one engine), so plain intrusive lists
	// beat sync.Pool here.
	defFree  *deferred
	unitFree *txUnit

	// Recovery state (nil unless cfg.Secure).
	poisonH PoisonHandler
	// scanArmed guards the self-quenching receiver-side stale-batch scan.
	scanArmed bool
	resyncH   sim.Handler
}

// New creates an endpoint on fresh storage for the system cfg describes,
// which config.Validate accepts; the endpoint reads cfg for its whole
// life, so cfg must not change. functional enables real encryption and
// MAC verification. mgr may be nil when cfg.Secure is false. The endpoint
// registers itself as the node's fabric deliverer.
func New(engine *sim.Engine, fabric *interconnect.Fabric, node interconnect.NodeID,
	cfg *config.Config, functional bool, mgr otp.Manager, handler Handler) *Endpoint {
	return new(Storage).New(engine, fabric, node, cfg, functional, mgr, handler)
}

// New is the package-level New on st's storage, which the endpoint uses
// until its Release.
func (st *Storage) New(engine *sim.Engine, fabric *interconnect.Fabric, node interconnect.NodeID,
	cfg *config.Config, functional bool, mgr otp.Manager, handler Handler) *Endpoint {
	if cfg.Secure && mgr == nil {
		panic("secure: secure endpoint needs an OTP manager")
	}
	e := &Endpoint{
		engine:   engine,
		fabric:   fabric,
		node:     node,
		handler:  handler,
		cfg:      cfg,
		batching: cfg.Secure && cfg.Batching,
		mgr:      mgr,
		st:       st,
	}
	e.defH = sim.HandlerFunc(e.onDeferred)
	e.btoH = sim.HandlerFunc(e.onBatchTimeout)
	e.unitH = sim.HandlerFunc(e.onUnitTimeout)
	e.scanH = sim.HandlerFunc(e.scanStale)
	if functional {
		gen, err := crypto.NewPadGenerator(SessionKey)
		if err != nil {
			panic(fmt.Sprintf("secure: session key: %v", err))
		}
		e.gen = gen
	}
	peers := fabric.NumNodes() - 1
	st.lastSendAt = zeroed(st.lastSendAt, peers)
	st.lastCtr = zeroed(st.lastCtr, peers)
	st.ctrSeen = zeroed(st.ctrSeen, peers)
	st.recov = st.recov[:0]
	for class := range st.units {
		// Units tables are kept past the table's length and emptied at
		// Release; an unsecure endpoint's stay empty.
		st.units[class] = extend(st.units[class], peers)
	}
	if cfg.Secure {
		e.unitFree, e.defFree = st.free, st.deferreds
		st.free, st.deferreds = nil, nil
		e.poisonH, _ = handler.(PoisonHandler)
		st.recov = zeroed(st.recov, peers)
		for i := range st.recov {
			st.recov[i].peer = i
		}
		e.resyncH = sim.HandlerFunc(e.onResyncTimeout)
	}
	for class, n := range [2]int{cfg.BatchSize, PageBlocks} {
		// Batchers and MAC stores are kept past the tables' length and
		// reset in place.
		st.batchers[class] = st.batchers[class][:0]
		st.macStores[class] = st.macStores[class][:0]
		st.batchTimers[class] = st.batchTimers[class][:0]
		if !e.batching {
			continue
		}
		st.batchers[class] = extend(st.batchers[class], peers)
		st.macStores[class] = extend(st.macStores[class], peers)
		st.batchTimers[class] = zeroed(st.batchTimers[class], peers)
		for i := range peers {
			if st.batchers[class][i] == nil {
				st.batchers[class][i], st.macStores[class][i] = new(core.Batcher), new(core.MACStore)
			}
			st.batchers[class][i].Reset(n, e.gen)
			st.macStores[class][i].Reset(PageBlocks, n, e.gen)
		}
	}
	fabric.Register(node, e)
	return e
}

// zeroed returns s resliced to n zero values, reallocating only when its
// capacity is short.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// extend returns s resliced to n, keeping the elements its capacity
// already holds and appending zero values past it.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// mustLive panics when the endpoint has been released.
func (e *Endpoint) mustLive() {
	if e.st == nil {
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

// onDeferred is the cached handler behind every deferred action: it runs
// the action and returns it to the free list.
func (e *Endpoint) onDeferred(ev sim.Event) {
	d := ev.Payload.(*deferred)
	if d.send != nil {
		e.fabric.Send(d.send)
	}
	if d.hasClosed {
		e.sendBatchMAC(d.dst, d.class, d.closed)
	}
	if m := d.deliver; m != nil {
		e.handler.HandleData(e.engine.Now(), m)
		e.fabric.FreeMessage(m)
	}
	e.freeDeferred(d)
}

// freeDeferred zeroes d and returns it to the free list.
func (e *Endpoint) freeDeferred(d *deferred) {
	*d = deferred{next: e.defFree}
	e.defFree = d
}

// SendControl transmits an unprotected control message (read requests,
// write acks, migration control). Control messages carry no data payload
// and follow the paper in staying outside the OTP path.
func (e *Endpoint) SendControl(dst interconnect.NodeID, kind interconnect.Kind, reqID, addr uint64, size int) {
	e.mustLive()
	msg := e.fabric.AcquireMessage()
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
	blk := txBlock{kind: uint8(kind), reqID: reqID, addr: addr, homed: homedInCPUMemory}
	if !e.cfg.Secure {
		e.stats.DataSent++
		e.fabric.Send(e.dataMessage(dst, blk))
		return
	}
	if e.resyncBlocked(dst, blk, payload) {
		// The peer's stream is mid-resync or mid-drain: the send is held
		// and replays, in order, once the handshake completes.
		return
	}
	e.stats.DataSent++
	peer := e.PeerIndex(dst)
	msg, mac, sendAt := e.sealBlock(dst, peer, blk, payload)

	// A conventional block is its own unit, named by its counter; a batched
	// one joins the open batch of its class.
	class, id := convClass, msg.Sec.MsgCTR
	var closed core.ClosedBatch
	var hasClosed bool
	if e.batching {
		class = batchClass(kind)
		var tag core.BlockTag
		tag, closed, hasClosed = e.st.batchers[class][peer].Add(mac)
		id = tag.BatchID
		batchLen := 0
		if hasClosed {
			batchLen = closed.Len
			// The batch closed full: its flush timer (none for a
			// single-block batch) dies here.
			e.st.batchTimers[class][peer].timer.Cancel()
		} else if tag.First && e.cfg.BatchFlushTimeout > 0 {
			e.scheduleBatchTimeout(class, peer, id, sendAt)
		}
		e.placeBlock(msg, class, id, tag.Index, batchLen)
	}
	u := e.trackBlock(unitKey{peer: peer, class: class, id: id}, dst, blk, payload)
	if class == convClass || hasClosed {
		// The unit is complete: its ACK is now due.
		e.armUnitTimer(u, sendAt)
	}
	e.pendingACK++

	d := e.newDeferred()
	d.send = msg
	if hasClosed {
		d.closed, d.hasClosed, d.dst, d.class = closed, true, dst, class
	}
	e.engine.Schedule(sendAt, e.defH, d)
}

// txBlock is one protected data block as its unit retains it for re-sending,
// in 24 bytes: kind is one of the three data kinds, so it fits a byte. The
// plaintext is kept apart (txUnit.payloads), since only functional runs seal
// it.
type txBlock struct {
	reqID uint64
	addr  uint64
	kind  uint8
	homed bool
}

// dataMessage builds the wire message of one data block, before any
// protection.
func (e *Endpoint) dataMessage(dst interconnect.NodeID, blk txBlock) *interconnect.Message {
	msg := e.fabric.AcquireMessage()
	msg.Kind = interconnect.Kind(blk.kind)
	msg.Category = interconnect.CatData
	msg.Src, msg.Dst = e.node, dst
	msg.BaseBytes = DataBytes
	msg.ReqID, msg.Addr = blk.reqID, blk.addr
	return msg
}

// sealBlock is the one path that protects a data block, for first sends and
// retransmits alike: it draws the peer's next send counter (stalling on a
// pad miss), keeps the channel FIFO, builds and seals the wire message, and
// sizes its per-block metadata. It returns the message, its MsgMAC and the
// cycle it may leave; a batched block still needs its place (placeBlock).
func (e *Endpoint) sealBlock(dst interconnect.NodeID, peer int, blk txBlock,
	payload []byte) (*interconnect.Message, [crypto.MACBytes]byte, sim.Cycle) {
	now := e.engine.Now()
	use := e.mgr.UseSend(now, peer)
	e.noteSendCtr(peer, use.Ctr)
	// The XOR follows once the pad is ready; lastSendAt keeps the channel
	// FIFO.
	sendAt := max(now+use.Stall+xorCycles, e.st.lastSendAt[peer])
	e.st.lastSendAt[peer] = sendAt

	msg := e.dataMessage(dst, blk)
	env := msg.AttachSec()
	env.MsgCTR, env.SenderID = use.Ctr, e.node
	mac := e.seal(msg, env, dst, payload)
	if e.cfg.MetadataTraffic {
		msg.MetaBytes = InlineMetaConv
		if e.batching {
			msg.MetaBytes = InlineMetaBatch
		}
		if blk.homed && e.cfg.CPUMemProtection {
			msg.MemProtBytes = MemProtBytes
		}
	}
	return msg, mac, sendAt
}

// placeBlock stamps a sealed block with its place in batch id of class. The
// batch's first block carries the 1B batch-length field; its last one names
// the length (batchLen, zero on every other block).
func (e *Endpoint) placeBlock(msg *interconnect.Message, class int, id uint64, index, batchLen int) {
	env := msg.Sec
	env.BatchClass, env.BatchID, env.BatchIndex, env.BatchLen = class, id, index, batchLen
	if index == 0 && e.cfg.MetadataTraffic {
		msg.MetaBytes += BatchLenByte
	}
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
			e.st.scratch[0] = [crypto.BlockBytes]byte{}
			copy(e.st.scratch[0][:], payload)
			src = e.st.scratch[0][:]
		}
		ct := msg.CipherBuf()
		crypto.Encrypt(ct, src, &pad)
		env.Ciphertext = ct
		mac = e.gen.MAC(ct, &pad)
	}
	env.MAC = mac
	return mac
}

// batchClass routes migration chunks to the page-granularity batcher.
func batchClass(kind interconnect.Kind) int {
	if kind == interconnect.KindMigrChunk {
		return 1
	}
	return 0
}

// scheduleBatchTimeout arms the open batch's flush timer. The timer is
// cancelled if the batch closes full first (SendData), so unlike the old
// epoch-checked events a healthy stream leaves no dead timeouts churning
// the queue.
func (e *Endpoint) scheduleBatchTimeout(class, peer int, batchID uint64, openedAt sim.Cycle) {
	bt := &e.st.batchTimers[class][peer]
	bt.class, bt.peer, bt.id = class, peer, batchID
	bt.timer = e.engine.ScheduleTimer(openedAt+sim.Cycle(e.cfg.BatchFlushTimeout), e.btoH, bt)
}

// onBatchTimeout flushes a batch still open when its timer expires, and
// arms the now complete unit's ACK timer. The OpenID re-check is defensive
// (cancellation already guarantees it for every close path).
func (e *Endpoint) onBatchTimeout(ev sim.Event) {
	bt := ev.Payload.(*batchTimer)
	b := e.st.batchers[bt.class][bt.peer]
	if id, open := b.OpenID(); open && id == bt.id {
		if cb, ok := b.Flush(); ok {
			e.stats.TimeoutFlushes++
			e.sendBatchMAC(PeerID(e.node, bt.peer), bt.class, cb)
			if u := e.unit(unitKey{peer: bt.peer, class: bt.class, id: bt.id}); u != nil {
				e.armUnitTimer(u, max(e.engine.Now(), e.st.lastSendAt[bt.peer]))
			}
		}
	}
}

func (e *Endpoint) sendBatchMAC(dst interconnect.NodeID, class int, cb core.ClosedBatch) {
	e.stats.BatchMACsSent++
	// In latency-only mode (MetadataTraffic off) the receiver still needs
	// the verification event, so the message travels with zero bytes.
	size := 0
	if e.cfg.MetadataTraffic {
		size = BatchMACBytes
	}
	msg := e.fabric.AcquireMessage()
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
	case interconnect.KindSecACK, interconnect.KindSecNACK:
		if msg.Sec == nil || msg.Corrupted {
			// A damaged frame, or one naming no unit, is discarded; the
			// unit's timer retransmits and a later ACK resolves it.
			e.stats.MalformedDropped++
			return
		}
		key := unitKey{peer: e.PeerIndex(msg.Src), class: msg.Sec.BatchClass, id: msg.Sec.BatchID}
		if msg.Kind == interconnect.KindSecACK {
			e.stats.ACKsReceived++
			e.resolveUnit(key)
		} else {
			e.stats.NACKsReceived++
			e.onNACK(key)
		}
	case interconnect.KindBatchMAC:
		// A malformed Batched_MsgMAC (no envelope, or one for a stream
		// this endpoint does not run) is dropped, not dereferenced: an
		// adversary must not be able to panic a node.
		if msg.Sec == nil || !e.batching ||
			msg.Sec.BatchClass < 0 || msg.Sec.BatchClass >= len(e.st.macStores) {
			e.stats.MalformedDropped++
			return
		}
		peer := e.PeerIndex(msg.Src)
		cb := core.ClosedBatch{BatchID: msg.Sec.BatchID, Len: msg.Sec.BatchLen, MAC: msg.Sec.MAC}
		if msg.Corrupted {
			// The fault damaged the Batched_MsgMAC itself; verification
			// must fail so the batch is NACKed and re-sent.
			cb.MAC[0] ^= 0xff
		}
		if res, done := e.st.macStores[msg.Sec.BatchClass][peer].OnBatchMAC(now, cb); done {
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
	if !e.cfg.Secure || msg.Sec == nil {
		e.handler.HandleData(now, msg)
		return
	}
	peer := e.PeerIndex(msg.Src)
	if e.st.ctrSeen[peer] && msg.Sec.MsgCTR <= e.st.lastCtr[peer] {
		// A counter at or below the last accepted one can only be a
		// replayed or re-injected packet; it is dropped without
		// consuming a pad or reaching the node.
		e.stats.ReplaysDropped++
		return
	}
	e.st.lastCtr[peer] = msg.Sec.MsgCTR
	e.st.ctrSeen[peer] = true
	use := e.mgr.UseRecv(now, peer, msg.Sec.MsgCTR)
	deliverAt := now + use.Stall + xorCycles

	var mac [crypto.MACBytes]byte
	corrupt := msg.Corrupted
	if e.gen != nil {
		pad := e.gen.Generate(msg.Sec.MsgCTR, uint16(msg.Src), uint16(e.node))
		// The plaintext only validates the decrypt path; it is computed
		// into a scratch block and dropped.
		crypto.Encrypt(e.st.scratch[1][:], msg.Sec.Ciphertext, &pad)
		mac = e.gen.MAC(msg.Sec.Ciphertext, &pad)
		if !e.batching && mac != msg.Sec.MAC {
			corrupt = true
		}
	}

	if e.batching {
		// Lazy verification (Section IV-C): the block is delivered as
		// soon as it is decrypted; the MsgMAC storage verifies the
		// batch when complete and only then ACKs.
		if corrupt && e.gen == nil {
			// Timing-only runs have no real ciphertext: model the damage
			// by flipping the computed MsgMAC so batch verification fails.
			mac[0] ^= 0xff
		}
		tag := core.BlockTag{BatchID: msg.Sec.BatchID, Index: msg.Sec.BatchIndex, First: msg.Sec.BatchIndex == 0}
		if res, done := e.st.macStores[msg.Sec.BatchClass][peer].OnBlock(now, tag, mac); done {
			e.finishBatch(msg.Src, msg.Sec.BatchClass, res)
		}
		e.armStaleScan()
	} else {
		if corrupt {
			e.stats.DecryptFailed++
			// The block is damaged: request a fresh copy instead of
			// acknowledging, and never hand the data to the node.
			e.sendNACK(msg.Src, convClass, msg.Sec.MsgCTR)
			return
		}
		if e.gen != nil {
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
	// use.Stall > 0): take ownership from the fabric and free it after the
	// node logic consumed it.
	msg.Retain()
	d := e.newDeferred()
	d.deliver = msg
	e.engine.Schedule(deliverAt, e.defH, d)
}

func (e *Endpoint) finishBatch(src interconnect.NodeID, class int, res core.VerifyResult) {
	if res.OK {
		e.stats.BatchesVerified++
		e.stats.DecryptOK += uint64(res.Len)
		e.sendACK(src, class, res.BatchID)
		return
	}
	e.stats.BatchesFailed++
	e.stats.DecryptFailed += uint64(res.Len)
	// Every covered block was already consumed under lazy verification;
	// account for it and request a clean re-send.
	e.stats.Quarantined += uint64(res.Len)
	e.sendNACK(src, class, res.BatchID)
}

func (e *Endpoint) sendACK(dst interconnect.NodeID, class int, id uint64) {
	e.stats.ACKsSent++
	e.sendFeedback(dst, interconnect.KindSecACK, class, id)
}

// sendFeedback transmits an ACK or NACK. The frame carries an envelope
// naming the acknowledged unit (same ACKBytes wire size: the 8B echo field
// identifies the batch instead of the MAC).
func (e *Endpoint) sendFeedback(dst interconnect.NodeID, kind interconnect.Kind, class int, id uint64) {
	size := 0
	if e.cfg.MetadataTraffic {
		size = ACKBytes
	}
	msg := e.fabric.AcquireMessage()
	msg.Kind = kind
	msg.Category = interconnect.CatSecACK
	msg.Src, msg.Dst = e.node, dst
	msg.MetaBytes = size
	env := msg.AttachSec()
	env.SenderID = e.node
	env.BatchClass = class
	env.BatchID = id
	e.fabric.Send(msg)
}

// PendingACK returns the sender's current unacknowledged-block debt.
func (e *Endpoint) PendingACK() int { return e.pendingACK }

// FillingBatches returns the incomplete batches across all MsgMAC stores.
func (e *Endpoint) FillingBatches() int {
	total := 0
	for class := range e.st.macStores {
		for _, store := range e.st.macStores[class] {
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
