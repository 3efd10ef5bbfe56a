package secure

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
)

// This file implements the counter-resynchronization and epoch-rekeying
// handshake. After a sustained outage the two sides of a pair disagree on
// how far the MsgCTR stream advanced: blocks, ACKs, and whole batches were
// blackholed, so the sender's retransmissions keep drawing fresh counters
// the receiver never observes. The RESYNC exchange re-agrees a counter base
// strictly above everything either side has used, invalidates the OTP pads
// buffered for the old stream (they were derived for counters now skipped),
// and replays the parked in-flight units under the new base.
//
// Rekeying rides the same handshake: when a pair's send counter crosses the
// configured epoch span, the sender drains its in-flight units and rotates
// to the next epoch boundary, bounding how much traffic any one counter
// range ever covers.
//
// The handshake itself travels on the protected plane, so outages and
// faults hit it like any other secure message; its retry loop is unbounded
// by design — a pair separated by a long outage keeps proposing until the
// link returns, and the simulation watchdog is the backstop against a peer
// that never answers.

// Resync frame wire layout, carried in the message's inline ciphertext
// block: magic(4) version(1) type(1) zero(2) seq(4) base(8) checksum(4).
const (
	resyncFrameBytes = 24
	resyncMagic      = 0x52535943 // "RSYC"
	resyncVersion    = 1

	frameResync = 1 // propose a new counter base after suspected desync
	frameRekey  = 2 // propose an epoch rotation to an aligned base
	frameAck    = 3 // accept a proposal, echoing its seq and base
)

// ResyncBytes is the wire size of a RESYNC or RESYNC-ACK message: the
// routing header plus the fixed handshake frame.
const ResyncBytes = HeaderBytes + resyncFrameBytes

// resyncFrame is one decoded handshake message.
type resyncFrame struct {
	Type byte
	Seq  uint32
	Base uint64
}

// encodeResyncFrame serializes f into dst, which must hold
// resyncFrameBytes.
func encodeResyncFrame(dst []byte, f resyncFrame) {
	_ = dst[resyncFrameBytes-1]
	binary.BigEndian.PutUint32(dst[0:4], resyncMagic)
	dst[4] = resyncVersion
	dst[5] = f.Type
	dst[6], dst[7] = 0, 0
	binary.BigEndian.PutUint32(dst[8:12], f.Seq)
	binary.BigEndian.PutUint64(dst[12:20], f.Base)
	binary.BigEndian.PutUint32(dst[20:24], resyncChecksum(dst[:20]))
}

// decodeResyncFrame validates and parses a handshake frame. It must reject
// every malformed input without panicking: frames cross the faulty fabric,
// so flipped bytes and truncations are routine, and an adversarial frame
// must not be able to wedge or crash an endpoint.
func decodeResyncFrame(b []byte) (resyncFrame, bool) {
	var f resyncFrame
	if len(b) != resyncFrameBytes {
		return f, false
	}
	if binary.BigEndian.Uint32(b[0:4]) != resyncMagic || b[4] != resyncVersion {
		return f, false
	}
	if b[5] < frameResync || b[5] > frameAck || b[6] != 0 || b[7] != 0 {
		return f, false
	}
	if binary.BigEndian.Uint32(b[20:24]) != resyncChecksum(b[:20]) {
		return f, false
	}
	f.Type = b[5]
	f.Seq = binary.BigEndian.Uint32(b[8:12])
	f.Base = binary.BigEndian.Uint64(b[12:20])
	if f.Base == 0 {
		// A base of zero can never be proposed (bases are strictly above a
		// used counter) and would underflow the receiver's lastCtr install.
		return f, false
	}
	return f, true
}

// resyncChecksum is FNV-1a over the frame prefix. It is an integrity check
// against fabric corruption, not an authenticator — the handshake's replay
// and staleness guards carry the security argument.
func resyncChecksum(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// heldSend is one SendData call intercepted while its peer's stream was
// resyncing or draining; it replays in order once the handshake completes.
type heldSend struct {
	blk     txBlock
	payload []byte
}

// peerRecovery is the per-peer resync/rekey state on the sender side.
type peerRecovery struct {
	peer int

	// failStreak counts consecutive delivery failures (ACK timeouts and
	// NACKs) without an intervening clean ACK; crossing the threshold
	// triggers a resync.
	failStreak int
	// lastSentCtr is the highest MsgCTR this endpoint has consumed toward
	// the peer; a proposed base must exceed it so no pad is ever reused.
	lastSentCtr uint64
	// epochBase is the counter base of the current key epoch.
	epochBase uint64
	// openUnits counts this peer's units in the units tables; a rekey
	// drain completes when it reaches zero.
	openUnits int

	// Handshake state: active while a proposal is unacknowledged, draining
	// while a rekey waits for in-flight units to resolve. Both hold new
	// sends in held.
	active     bool
	rekey      bool
	draining   bool
	base       uint64
	seq        uint32
	attempts   int
	timer      sim.Timer
	stallStart sim.Cycle

	parked []*txUnit
	held   []heldSend
}

// blocked reports whether new sends to the peer must be held.
func (rs *peerRecovery) blocked() bool { return rs.active || rs.draining }

// resyncBlocked reports whether a send to dst must be parked in the peer's
// held queue, recording it if so.
func (e *Endpoint) resyncBlocked(dst interconnect.NodeID, blk txBlock, payload []byte) bool {
	rs := &e.st.recov[e.PeerIndex(dst)]
	if !rs.blocked() {
		return false
	}
	rs.held = append(rs.held, heldSend{blk: blk, payload: payload})
	e.stats.HeldSends++
	return true
}

// noteSendCtr records a consumed send counter and arms the epoch-rekey
// drain when the counter crosses the epoch boundary.
func (e *Endpoint) noteSendCtr(peer int, ctr uint64) {
	rs := &e.st.recov[peer]
	if ctr > rs.lastSentCtr {
		rs.lastSentCtr = ctr
	}
	if e.cfg.RekeyEpoch > 0 && ctr >= rs.epochBase+e.cfg.RekeyEpoch && !rs.blocked() {
		// The block drawing this counter crossed the epoch boundary. It
		// still ships (and is tracked as a unit right after this call), so
		// the drain always has at least one unit whose resolution triggers
		// the rotation in unitResolved.
		rs.draining = true
		rs.stallStart = e.engine.Now()
	}
}

// bumpFailure advances a peer's failure streak and, at the threshold,
// launches a resync. It reports true when the caller's unit was parked by
// the launch and must not be retransmitted or poisoned directly.
func (e *Endpoint) bumpFailure(peer int) bool {
	if e.cfg.ResyncThreshold <= 0 {
		return false
	}
	rs := &e.st.recov[peer]
	if rs.active {
		// No unit timers exist during an active handshake; a straggling
		// failure cannot start another.
		return false
	}
	rs.failStreak++
	if rs.failStreak < e.cfg.ResyncThreshold {
		return false
	}
	// Crossing the threshold mid-drain means the drain itself is wedged on
	// a dark link: rotate now, parking the survivors, instead of letting
	// them burn their bounded retry budget into poisoning while waiting for
	// a drain that cannot complete.
	e.beginResync(peer, rs.draining)
	return true
}

// unitResolved updates per-peer recovery accounting when a unit leaves the
// units tables (ACKed or poisoned). clean marks an ACK, which resets
// the failure streak.
func (e *Endpoint) unitResolved(peer int, clean bool) {
	rs := &e.st.recov[peer]
	if clean {
		rs.failStreak = 0
	}
	rs.openUnits--
	if rs.draining && !rs.active && rs.openUnits == 0 {
		e.beginResync(peer, true)
	}
}

// discardOpenBatch drops the peer's open batch if it is the unit's: the
// blocks remain tracked by the unit and will re-send under a fresh batch
// identity, so flushing the abandoned remainder later would emit a
// Batched_MsgMAC for a batch the receiver must never complete.
func (e *Endpoint) discardOpenBatch(u *txUnit) {
	if !e.batching || u.class == convClass {
		return
	}
	b := e.st.batchers[u.class][u.peer]
	if id, open := b.OpenID(); open && id == u.id {
		b.Flush()
		e.st.batchTimers[u.class][u.peer].timer.Cancel()
	}
}

// beginResync launches the handshake toward a peer: open batches are
// discarded (their blocks stay tracked), every in-flight unit is parked
// with its timer cancelled, and a base strictly above every consumed
// counter is proposed. rekey rotates to the next epoch boundary instead.
func (e *Endpoint) beginResync(peer int, rekey bool) {
	rs := &e.st.recov[peer]
	now := e.engine.Now()
	if e.batching {
		for class := range e.st.batchers {
			if _, open := e.st.batchers[class][peer].OpenID(); open {
				e.st.batchers[class][peer].Flush()
				e.st.batchTimers[class][peer].timer.Cancel()
			}
		}
	}
	for class := range e.st.units {
		e.st.units[class][peer].Range(func(_ uint64, u **txUnit) {
			rs.parked = append(rs.parked, *u)
		})
	}
	// Table iteration follows slots, not IDs; sort so the replay is
	// deterministic.
	sort.Slice(rs.parked, func(i, j int) bool {
		a, b := rs.parked[i], rs.parked[j]
		if a.class != b.class {
			return a.class < b.class
		}
		return a.id < b.id
	})
	for _, u := range rs.parked {
		u.timer.Cancel()
		e.untrack(u)
	}
	rs.openUnits = 0

	base := rs.lastSentCtr + 1
	if rekey {
		base = (rs.lastSentCtr/e.cfg.RekeyEpoch + 1) * e.cfg.RekeyEpoch
	} else if !rs.draining {
		rs.stallStart = now
	}
	rs.active, rs.rekey = true, rekey
	rs.base = base
	rs.seq++
	rs.attempts = 0
	e.stats.ResyncsInitiated++
	e.sendResyncFrame(interconnect.KindSecResync, PeerID(e.node, peer), rs.frameType(), rs.seq, base)
	e.armResyncTimer(rs)
}

func (rs *peerRecovery) frameType() byte {
	if rs.rekey {
		return frameRekey
	}
	return frameResync
}

// sendResyncFrame transmits one handshake message on the protected plane.
func (e *Endpoint) sendResyncFrame(kind interconnect.Kind, dst interconnect.NodeID,
	typ byte, seq uint32, base uint64) {
	msg := e.fabric.AcquireMessage()
	msg.Kind = kind
	msg.Category = interconnect.CatResync
	msg.Src, msg.Dst = e.node, dst
	if e.cfg.MetadataTraffic {
		msg.MetaBytes = ResyncBytes
	}
	env := msg.AttachSec()
	env.SenderID = e.node
	buf := msg.CipherBuf()[:resyncFrameBytes]
	encodeResyncFrame(buf, resyncFrame{Type: typ, Seq: seq, Base: base})
	env.Ciphertext = buf
	e.fabric.Send(msg)
}

// armResyncTimer schedules the handshake's retry with capped exponential
// backoff. Retries are unbounded: a long outage must end with a completed
// resync, not a poisoned pair, and the watchdog bounds a peer that never
// answers.
func (e *Endpoint) armResyncTimer(rs *peerRecovery) {
	shift := uint(rs.attempts)
	if shift > 6 {
		shift = 6
	}
	rs.timer.Cancel()
	rs.timer = e.engine.ScheduleTimerAfter(sim.Cycle(e.cfg.RetransTimeout)<<shift, e.resyncH, rs)
}

// onResyncTimeout re-proposes an unacknowledged handshake.
func (e *Endpoint) onResyncTimeout(ev sim.Event) {
	rs := ev.Payload.(*peerRecovery)
	if !rs.active {
		return
	}
	rs.attempts++
	e.stats.ResyncRetries++
	e.sendResyncFrame(interconnect.KindSecResync, PeerID(e.node, rs.peer), rs.frameType(), rs.seq, rs.base)
	e.armResyncTimer(rs)
}

// onResyncRequest serves a peer's proposal: install the base, invalidate
// the receive-side pad predictions, abandon the partial batches the dead
// stream left behind, and acknowledge. Duplicates re-acknowledge without
// reinstalling; stale proposals (the stream already moved past the base)
// are dropped so an old wire copy can never rewind the replay guard.
func (e *Endpoint) onResyncRequest(now sim.Cycle, msg *interconnect.Message) {
	if !e.cfg.Secure || msg.Sec == nil || msg.Corrupted {
		e.stats.MalformedDropped++
		return
	}
	f, ok := decodeResyncFrame(msg.Sec.Ciphertext)
	if !ok || f.Type == frameAck {
		e.stats.MalformedDropped++
		return
	}
	peer := e.PeerIndex(msg.Src)
	switch {
	case e.st.ctrSeen[peer] && f.Base-1 < e.st.lastCtr[peer]:
		e.stats.StaleResyncs++
		return
	case e.st.ctrSeen[peer] && f.Base-1 == e.st.lastCtr[peer]:
		// Duplicate of an already-installed proposal: just re-acknowledge.
	default:
		e.st.lastCtr[peer] = f.Base - 1
		e.st.ctrSeen[peer] = true
		if e.mgr != nil {
			e.mgr.ResyncRecv(now, peer, f.Base)
		}
		if e.batching {
			// Blocks of the abandoned stream can never complete a batch:
			// their retransmissions arrive under fresh batch identities.
			for class := range e.st.macStores {
				for _, ex := range e.st.macStores[class][peer].Expire(now, 0) {
					e.stats.Quarantined += uint64(ex.Received)
				}
			}
		}
		e.stats.ResyncsServed++
	}
	e.sendResyncFrame(interconnect.KindSecResyncAck, msg.Src, frameAck, f.Seq, f.Base)
}

// onResyncAck completes the sender side of the handshake when the echo
// matches the live proposal; anything else is a stale duplicate.
func (e *Endpoint) onResyncAck(now sim.Cycle, msg *interconnect.Message) {
	if !e.cfg.Secure || msg.Sec == nil || msg.Corrupted {
		e.stats.MalformedDropped++
		return
	}
	f, ok := decodeResyncFrame(msg.Sec.Ciphertext)
	if !ok || f.Type != frameAck {
		e.stats.MalformedDropped++
		return
	}
	peer := e.PeerIndex(msg.Src)
	rs := &e.st.recov[peer]
	if !rs.active || f.Seq != rs.seq || f.Base != rs.base {
		e.stats.StaleResyncs++
		return
	}
	e.completeResync(now, rs)
}

// completeResync installs the agreed base on the send side, re-sends every
// parked unit under fresh counters, and replays the sends held during the
// handshake in their original order.
func (e *Endpoint) completeResync(now sim.Cycle, rs *peerRecovery) {
	rs.timer.Cancel()
	rs.active = false
	e.mgr.ResyncSend(now, rs.peer, rs.base)
	if rs.base-1 > rs.lastSentCtr {
		rs.lastSentCtr = rs.base - 1
	}
	if rs.rekey {
		rs.rekey, rs.draining = false, false
		rs.epochBase = rs.base
		e.stats.Rekeys++
	}
	e.stats.RekeyStallCycles += uint64(now - rs.stallStart)
	e.stats.ResyncsCompleted++
	rs.failStreak = 0

	parked := rs.parked
	rs.parked = nil
	for _, u := range parked {
		u.attempt = 0
		rs.openUnits++
		e.retransmit(u)
	}
	held := rs.held
	rs.held = nil
	dst := PeerID(e.node, rs.peer)
	for _, h := range held {
		e.SendData(dst, interconnect.Kind(h.blk.kind), h.blk.reqID, h.blk.addr, h.payload, h.blk.homed)
	}
}

// Resyncing reports whether any peer's stream is mid-handshake or
// mid-drain (test and diagnostic hook).
func (e *Endpoint) Resyncing() bool {
	for i := range e.st.recov {
		if e.st.recov[i].blocked() {
			return true
		}
	}
	return false
}

// Diag summarizes the endpoint's live protocol state for the simulation
// watchdog's trip-time dump. It is built for a wedged run: quiescent peers
// are omitted so the report points at the streams that are stuck.
func (e *Endpoint) Diag() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"node":%d,"pendingACK":%d,"openUnits":%d,"fillingBatches":%d`,
		int(e.node), e.pendingACK, e.OpenUnits(), e.FillingBatches())
	for i := range e.st.recov {
		rs := &e.st.recov[i]
		if !rs.blocked() && rs.failStreak == 0 && len(rs.held) == 0 {
			continue
		}
		fmt.Fprintf(&sb, `,"peer%d":{"dst":%d,"active":%t,"rekey":%t,"draining":%t,"streak":%d,"attempts":%d,"parked":%d,"held":%d,"base":%d}`,
			i, int(PeerID(e.node, i)), rs.active, rs.rekey, rs.draining,
			rs.failStreak, rs.attempts, len(rs.parked), len(rs.held), rs.base)
	}
	sb.WriteString("}")
	return sb.String()
}
