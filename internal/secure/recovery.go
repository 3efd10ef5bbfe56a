package secure

import (
	"secmgpu/internal/core"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
)

// This file implements the sender-driven recovery protocol every secure
// endpoint runs alongside the paper's path. Each send unit — one batch, or
// one conventional block — stays tracked until its ACK arrives. A NACK
// (the receiver saw a damaged block, a failed batch, or a batch its
// stale-batch scan abandoned) or an ACK timeout re-sends the unit under
// fresh counters, with exponential backoff and a bounded retry budget;
// past it the unit is poisoned and the node logic fails the affected
// operations. On a healthy fabric no ACK timer fires and nothing is
// re-sent, so the protocol costs no cycles and no bytes.

// PoisonHandler is optionally implemented by the node logic to learn when a
// data block is abandoned after max retries. dst is the peer the block was
// addressed to; the handler decides whether the failed operation is local
// (fail it) or remote (tell the peer over the lossless control plane).
type PoisonHandler interface {
	HandlePoisoned(now sim.Cycle, dst interconnect.NodeID, kind interconnect.Kind, reqID uint64)
}

// unitKey identifies one retransmission unit: a batch (class 0 or 1) or a
// conventional block (convClass, keyed by its MsgCTR).
type unitKey struct {
	peer  int
	class int
	id    uint64
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

// Retention caps of one Storage: uncapped, it would keep what the largest
// cell it served needed, which raised a sweep's peak RSS by half.
const (
	// maxParkedUnitSlots caps the slots a Storage's units tables add up
	// to; tables past it are dropped. A table grows to the span of its
	// (peer, class)'s live unit IDs: up to 512 slots in a secbench -exp
	// all pass at scale 0.01, 4,096 in a 4-GPU cell losing 1% of its
	// messages. Keeping every table a 16-GPU cell grew (up to 650 KiB per
	// cell store entry) raised perfbench figures' peak RSS by ~2 MiB.
	maxParkedUnitSlots = 128
	// maxParkedUnits caps the free units a Storage keeps.
	maxParkedUnits = 128
	// maxParkedBlocks caps the blocks capacity their slices add up to
	// (a unit's one inline block aside); units past it are kept without
	// a slice.
	maxParkedBlocks = 512
	// maxParkedDeferreds caps the free deferreds a Storage keeps. Over
	// a secbench -exp all pass, 99% of endpoints end a cell with at most
	// 136 on their free list; the largest list held 370.
	maxParkedDeferreds = 128
)

// Release ends the endpoint's life and hands its storage back. Every
// unit, whether live, parked for a resync or already free, is zeroed and
// kept or dropped under the caps. machine.System calls it after releasing
// the engine, so no queued timer still names a unit. Afterwards SendData,
// SendControl and Deliver panic; Stats and OTPStats keep reporting the
// final state. Releasing twice is a no-op.
func (e *Endpoint) Release() {
	st := e.st
	if st == nil {
		return
	}
	e.st = nil
	if e.cfg.Secure {
		e.parkUnits(st)
	}
	for class := range st.batchTimers {
		clear(st.batchTimers[class])
	}
	clear(st.recov)
}

// parkUnits moves the endpoint's units and deferreds into st under the
// retention caps.
func (e *Endpoint) parkUnits(st *Storage) {
	n, blocksKept := 0, 0
	maxBlocks := e.unitBlocks(0)
	keep := func(u *txUnit) {
		if n == maxParkedUnits {
			return
		}
		blocks := u.blocks
		switch c := cap(blocks); {
		case c <= 1:
			// Empty, or backed by the unit's own one.
		case c > maxBlocks || blocksKept+c > maxParkedBlocks:
			blocks = nil
		default:
			blocksKept += c
		}
		// Blocks hold no pointers and a unit reads only those it appended,
		// so they need no clearing; plaintexts are dropped.
		*u = txUnit{blocks: blocks[:0], next: st.free}
		st.free = u
		n++
	}
	for u := e.unitFree; u != nil; {
		next := u.next
		keep(u)
		u = next
	}
	slots := 0
	for class := range st.units {
		// Tables past the length, kept from a larger cell, count too.
		tabs := st.units[class][:cap(st.units[class])]
		for peer := range tabs {
			tab := &tabs[peer]
			tab.Range(func(_ uint64, u **txUnit) { keep(*u) })
			if slots+tab.Slots() > maxParkedUnitSlots {
				*tab = sim.IDTable[*txUnit]{}
			}
			slots += tab.Slots()
			tab.Clear()
		}
	}
	for i := range st.recov {
		for _, u := range st.recov[i].parked {
			keep(u)
		}
	}
	// Free deferreds are zeroed as they are freed; deferreds still queued
	// in the released engine are dropped with it.
	for d, k := e.defFree, 0; d != nil && k < maxParkedDeferreds; k++ {
		next := d.next
		d.next = st.deferreds
		st.deferreds = d
		d = next
	}
	e.unitFree, e.defFree = nil, nil
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

// unitTable returns the units table of (peer, class).
func (e *Endpoint) unitTable(peer, class int) *sim.IDTable[*txUnit] {
	return &e.st.units[class-convClass][peer]
}

// unit returns the unit key names, or nil when none is tracked; key may
// come off the wire, naming a class no unit has.
func (e *Endpoint) unit(key unitKey) *txUnit {
	if key.class < convClass || key.class > 1 {
		return nil
	}
	if u := e.unitTable(key.peer, key.class).Get(key.id); u != nil {
		return *u
	}
	return nil
}

// untrack takes u out of its units table.
func (e *Endpoint) untrack(u *txUnit) { e.unitTable(u.peer, u.class).Delete(u.id) }

// trackBlock appends one block to its retransmission unit, creating the
// unit on first use. A functional run also keeps the block's plaintext.
func (e *Endpoint) trackBlock(key unitKey, dst interconnect.NodeID, blk txBlock, payload []byte) *txUnit {
	slot, added := e.unitTable(key.peer, key.class).Put(key.id)
	u := *slot
	if added {
		u = e.newUnit()
		if n := e.unitBlocks(key.class); n == 1 && cap(u.blocks) == 0 {
			u.blocks = u.one[:0]
		} else if cap(u.blocks) < n {
			u.blocks = make([]txBlock, 0, n)
		}
		u.dst, u.peer, u.class, u.id = dst, key.peer, key.class, key.id
		*slot = u
		e.st.recov[key.peer].openUnits++
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
		return e.cfg.BatchSize
	}
}

// retire takes an ACKed or poisoned unit out of tracking: its timer dies
// and its pending-ACK debt is repaid. clean marks an ACK.
func (e *Endpoint) retire(u *txUnit, clean bool) {
	u.timer.Cancel()
	e.untrack(u)
	e.pendingACK = max(e.pendingACK-len(u.blocks), 0)
	e.unitResolved(u.peer, clean)
}

// resolveUnit retires a unit on ACK: its blocks are confirmed received and
// verified.
func (e *Endpoint) resolveUnit(key unitKey) {
	u := e.unit(key)
	if u == nil {
		e.stats.StaleACKs++
		return
	}
	e.retire(u, true)
	e.freeUnit(u)
}

func (e *Endpoint) sendNACK(dst interconnect.NodeID, class int, id uint64) {
	e.stats.NACKsSent++
	e.sendFeedback(dst, interconnect.KindSecNACK, class, id)
}

// onNACK retries the named unit at once. A NACK for an unknown unit —
// already resolved, or already re-keyed by a timer — is stale and ignored.
func (e *Endpoint) onNACK(key unitKey) {
	if u := e.unit(key); u != nil {
		e.retry(u)
		return
	}
	e.stats.StaleACKs++
}

// armUnitTimer schedules the unit's ACK timeout with exponential backoff,
// cancelling any previous shot so each unit owns at most one live timer.
func (e *Endpoint) armUnitTimer(u *txUnit, sentAt sim.Cycle) {
	shift := uint(min(u.attempt, 6))
	u.timer.Cancel()
	u.timer = e.engine.ScheduleTimer(sentAt+(sim.Cycle(e.cfg.RetransTimeout)<<shift), e.unitH, u)
}

// onUnitTimeout fires when a unit's ACK never arrived. The timer is
// cancelled whenever its unit is resolved, poisoned, or re-keyed, so a
// firing timer always names a live unit — no revalidation needed.
func (e *Endpoint) onUnitTimeout(ev sim.Event) {
	e.stats.AckTimeouts++
	e.retry(ev.Payload.(*txUnit))
}

// retry handles one failed delivery of a unit (a NACK or an ACK timeout):
// it re-sends the unit, or poisons it once the retry budget is spent. A
// failure that crosses the resync threshold instead parks the unit behind
// the handshake, which re-sends it once the base is agreed.
func (e *Endpoint) retry(u *txUnit) {
	switch {
	case e.bumpFailure(u.peer):
		// Parked by the resync launch; the handshake re-sends it.
	case u.attempt >= e.cfg.RetransMaxRetries:
		e.poison(u)
	default:
		e.retransmit(u)
	}
}

// retransmit re-sends every block of the unit through the same sealBlock
// path as a first send. Pads are one-time and the receiver's counter guard
// rejects stale counters, so each block is re-encrypted under a fresh
// MsgCTR; a batch additionally re-keys to a fresh BatchID (with a fresh
// Batched_MsgMAC, sent right after its last block) so the copy never
// collides with the receiver's state for the lost original.
func (e *Endpoint) retransmit(u *txUnit) {
	u.attempt++
	u.timer.Cancel()
	// If the unit's batch is still open (a NACK can outrun the flush), the
	// re-send supersedes it: drop the open remainder and its flush timer so
	// no Batched_MsgMAC for the dead identity escapes later.
	e.discardOpenBatch(u)
	e.stats.Retransmits += uint64(len(u.blocks))
	e.untrack(u)

	n := len(u.blocks)
	if u.class != convClass {
		u.id = e.st.batchers[u.class][u.peer].AllocID()
	}
	var macs []byte
	var sendAt sim.Cycle
	for i, blk := range u.blocks {
		msg, mac, at := e.sealBlock(u.dst, u.peer, blk, u.payload(i))
		sendAt = at
		d := e.newDeferred()
		d.send = msg
		if u.class == convClass {
			// A conventional unit is named by its block's counter.
			u.id = msg.Sec.MsgCTR
		} else {
			macs = append(macs, mac[:]...)
			batchLen := 0
			if i == n-1 {
				batchLen = n
				d.closed, d.hasClosed = core.ClosedBatch{BatchID: u.id, Len: n, MAC: core.BatchMAC(e.gen, macs)}, true
				d.dst, d.class = u.dst, u.class
			}
			e.placeBlock(msg, u.class, u.id, i, batchLen)
		}
		e.engine.Schedule(sendAt, e.defH, d)
	}
	slot, _ := e.unitTable(u.peer, u.class).Put(u.id)
	*slot = u
	e.armUnitTimer(u, sendAt)
}

// poison abandons a unit after max retries: the pending-ACK debt is repaid,
// the blocks are surfaced in Stats, and the node logic is told so affected
// operations fail instead of hanging the simulation.
func (e *Endpoint) poison(u *txUnit) {
	e.discardOpenBatch(u)
	e.retire(u, false)
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
	if e.scanArmed {
		return
	}
	e.scanArmed = true
	e.engine.Schedule(e.engine.Now()+sim.Cycle(e.cfg.StaleBatchTimeout), e.scanH, nil)
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
	for class := range e.st.macStores {
		for peer, store := range e.st.macStores[class] {
			if store == nil {
				continue
			}
			for _, ex := range store.Expire(now, sim.Cycle(e.cfg.StaleBatchTimeout)) {
				e.stats.Quarantined += uint64(ex.Received)
				e.sendNACK(PeerID(e.node, peer), class, ex.BatchID)
			}
			if store.Filling() > 0 {
				rearm = true
			}
		}
	}
	if rearm {
		e.armStaleScan()
	}
}

// OpenUnits returns the retransmission units still awaiting resolution
// (always zero on an unsecure endpoint, after a drained run or after
// Release).
func (e *Endpoint) OpenUnits() int {
	if e.st == nil {
		return 0
	}
	n := 0
	for class := range e.st.units {
		for peer := range e.st.units[class] {
			n += e.st.units[class][peer].Len()
		}
	}
	return n
}
