package machine

import (
	"encoding/binary"
	"fmt"

	"secmgpu/internal/core"
	"secmgpu/internal/gpu"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/mem"
	"secmgpu/internal/metrics"
	"secmgpu/internal/migration"
	"secmgpu/internal/secure"
	"secmgpu/internal/sim"
	"secmgpu/internal/tlb"
	"secmgpu/internal/workload"
)

// Address layout: | page ID (44b, see migration.PageID) | offset (12b) |.
const offsetBits = 12 // 4KB pages

// pageIDOf builds the global page identifier.
func pageIDOf(home, requester int, page uint32) migration.PageID {
	return migration.PageOf(migration.Node(home), migration.Node(requester), page)
}

// homeOf recovers the home node encoded in a page ID.
func homeOf(p migration.PageID) interconnect.NodeID { return interconnect.NodeID(p.Home()) }

// addrOf builds a block address from a page and block index.
func addrOf(p migration.PageID, block uint8) uint64 {
	return uint64(p)<<offsetBits | uint64(block)<<6
}

// pageOf recovers the page from a block address.
func pageOf(addr uint64) migration.PageID {
	return migration.PageID(addr >> offsetBits)
}

// pendingOp is the requester-side context of one in-flight operation,
// packed into 16 bytes: the pending table holds one per outstanding
// request, in the slot its request ID's sequence number selects.
type pendingOp struct {
	page migration.PageID
	// cu is the issuing compute unit in CU-sharded mode, -1 otherwise.
	cu        int32
	migrating bool
}

// maxParkedPending caps the slots of a pending table that a release
// hands back. A table grows to the span of its live request IDs: the
// outstanding-request window, stretched by requests that wait out
// retransmissions while newer ones retire (512 slots at most in a
// secbench -exp all pass at scale 0.01, 1,024 in a 16-GPU cell at scale
// 0.5, 8,192 in a 4-GPU cell losing 1% of its messages).
const maxParkedPending = 1024

// takeRequests installs a node's pending table, which it uses in place,
// and its event free list from its cell store part. The CPU takes them
// too: it serves reads and migrations, so it schedules events; it issues
// no requests, so its table only ever serves lookups.
func (n *node) takeRequests(ns *nodeStore) {
	n.pending, n.evFree = &ns.pending, ns.evFree
	ns.evFree = nil
}

// releaseRequests empties the pending table, or drops it past
// maxParkedPending, and hands the event free list back to ns. The table
// is iterated nowhere, and an event is zeroed when taken, so recycling
// cannot change a result. The node's fields are nilled, so a stale
// lookup or insert panics instead of reaching a table another cell now
// owns.
func (n *node) releaseRequests(ns *nodeStore) {
	if n.pending.Slots() > maxParkedPending {
		*n.pending = sim.IDTable[pendingOp]{}
	}
	n.pending.Reset()
	ns.evFree = n.evFree
	n.pending, n.evFree = nil, nil
}

// migrationSet holds the pages a GPU is migrating in: at most
// maxConcurrentMigrations, so a short array beats a map.
type migrationSet struct {
	pages [maxConcurrentMigrations]migration.PageID
	n     int
}

func (m *migrationSet) has(page migration.PageID) bool {
	for _, p := range m.pages[:m.n] {
		if p == page {
			return true
		}
	}
	return false
}

// add inserts a page that is not yet in the set, which has room for it.
func (m *migrationSet) add(page migration.PageID) {
	m.pages[m.n] = page
	m.n++
}

func (m *migrationSet) remove(page migration.PageID) {
	for i, p := range m.pages[:m.n] {
		if p == page {
			m.n--
			m.pages[i] = m.pages[m.n]
			return
		}
	}
}

// node is one processor: the CPU (passive home) or a GPU (trace-driven
// requester that is also a home for other GPUs' accesses).
type node struct {
	sys    *System
	id     interconnect.NodeID
	ep     *secure.Endpoint
	memory *mem.Memory
	dyn    *core.Dynamic
	tlbH   *tlb.Hierarchy
	fe     *gpu.FrontEnd

	// Requester state (GPUs only).
	ops        []workload.Op
	next       int
	window     int
	inFlight   int
	completed  int
	eligibleAt sim.Cycle
	stallUntil sim.Cycle
	wakeAt     sim.Cycle
	hasWake    bool
	reqSeq     uint64
	// pending is keyed by request ID, node<<48 | reqSeq; it lives in the
	// node's cell store part.
	pending   *sim.IDTable[pendingOp]
	migrating migrationSet
	done      bool

	// Recovery accounting: operations fail-completed after their data was
	// poisoned, and completions tolerated as stale (duplicate deliveries or
	// post-poison stragglers).
	failedOps        uint64
	staleCompletions uint64

	// Optional communication traces (Figures 13-14).
	sendRecv *metrics.Series
	dests    *metrics.Series

	// evH is the cached handler for every event this node schedules;
	// evFree recycles their pooled nodeEvent payloads (the node is
	// single-goroutine, so a plain intrusive list suffices).
	evH    sim.Handler
	evFree *nodeEvent
}

// nodeEvent is the pooled typed payload behind every event a node
// schedules: wakeups, issues deferred by a TLB walk, memory-service
// completions, and the home side's delayed replies. One union with a
// single cached handler replaces a closure allocation per event.
//
// It packs into 72 bytes (the 80-byte size class): the kind shares a word
// with the CU, and a TLB-deferred issue recovers its page from addr.
type nodeEvent struct {
	kind nodeEventKind
	cu   int32
	src  interconnect.NodeID
	id   uint64
	addr uint64
	op   workload.Op

	next *nodeEvent
}

type nodeEventKind uint8

const (
	// evWake re-enters tryIssue at the scheduled wake cycle.
	evWake nodeEventKind = iota
	// evIssueTranslated resumes an operation after its TLB walk.
	evIssueTranslated
	// evComplete retires a local access once memory service finishes.
	evComplete
	// evWriteCommit acknowledges a remote write committed at this home.
	evWriteCommit
	// evServeRead sends the data response for a remote read.
	evServeRead
	// evMigrChunk streams one block of a migrating page.
	evMigrChunk
	// evMigrDone signals the end of a migration stream.
	evMigrDone
)

func (n *node) newEvent(kind nodeEventKind) *nodeEvent {
	ev := n.evFree
	if ev == nil {
		ev = &nodeEvent{}
	} else {
		n.evFree = ev.next
		*ev = nodeEvent{}
	}
	ev.kind = kind
	return ev
}

// onEvent dispatches a pooled node event. The payload is recycled before
// dispatch (its fields are copied out first), so actions that schedule
// follow-up events can reuse it immediately.
func (n *node) onEvent(se sim.Event) {
	ev := se.Payload.(*nodeEvent)
	kind, cu, src, id, addr, op :=
		ev.kind, int(ev.cu), ev.src, ev.id, ev.addr, ev.op
	ev.next = n.evFree
	n.evFree = ev
	now := n.engine().Now()
	switch kind {
	case evWake:
		if n.wakeAt == now {
			n.hasWake = false
		}
		n.tryIssue()
	case evIssueTranslated:
		if cu < 0 {
			n.inFlight--
		}
		n.issueTranslated(now, op, pageOf(addr), addr, cu)
	case evComplete:
		n.complete(cu)
	case evWriteCommit:
		n.ep.SendControl(src, interconnect.KindWriteAck, id, addr, secure.CtrlBytes)
	case evServeRead:
		n.sys.noteDataBlock(n.id, src, now)
		n.ep.SendData(src, interconnect.KindDataResp, id, addr, n.payloadFor(addr), n.id.IsCPU())
	case evMigrChunk:
		n.sys.noteDataBlock(n.id, src, now)
		n.ep.SendData(src, interconnect.KindMigrChunk, id, addr, n.payloadFor(addr), n.id.IsCPU())
	case evMigrDone:
		n.ep.SendControl(src, interconnect.KindMigrDone, id, addr, secure.CtrlBytes)
	}
}

// maxConcurrentMigrations bounds simultaneous inbound page migrations per
// GPU, modelling the driver's migration queue.
const maxConcurrentMigrations = 4

func (n *node) engine() *sim.Engine { return n.sys.engine }

func (n *node) scheduleWake(at sim.Cycle) {
	now := n.engine().Now()
	if at < now {
		at = now
	}
	if n.hasWake && n.wakeAt <= at {
		return
	}
	n.hasWake = true
	n.wakeAt = at
	n.engine().Schedule(at, n.evH, n.newEvent(evWake))
}

// tryIssue drains the trace while the outstanding-request window (flat
// mode) or the per-CU wavefront windows (CU-sharded mode) have room.
func (n *node) tryIssue() {
	if n.fe != nil {
		n.tryIssueCUs()
		return
	}
	now := n.engine().Now()
	for !n.done && n.inFlight < n.window && n.next < len(n.ops) {
		at := n.eligibleAt
		if n.stallUntil > at {
			at = n.stallUntil
		}
		if at > now {
			n.scheduleWake(at)
			return
		}
		op := n.ops[n.next]
		n.next++
		if n.next < len(n.ops) {
			n.eligibleAt = now + sim.Cycle(n.ops[n.next].Gap)
		}
		n.issue(now, op, -1)
	}
}

func (n *node) tryIssueCUs() {
	now := n.engine().Now()
	for !n.done {
		if n.stallUntil > now {
			// A TLB shootdown freezes the whole GPU front-end.
			n.scheduleWake(n.stallUntil)
			return
		}
		op, cu, ok, wake := n.fe.NextReady(now)
		if !ok {
			if wake != sim.MaxCycle {
				n.scheduleWake(wake)
			}
			return
		}
		n.fe.OnIssue(cu, now)
		n.issue(now, op, cu)
	}
}

func (n *node) issue(now sim.Cycle, op workload.Op, cu int) {
	page := pageIDOf(int(op.Home), int(n.id), op.Page)
	addr := addrOf(page, op.Block)

	if n.tlbH != nil {
		// Address translation precedes the access; a TLB miss defers the
		// whole operation by the walk latency. In CU-sharded mode the
		// wavefront slot is already held via OnIssue.
		if lat, _ := n.tlbH.Translate(uint64(page)); lat > tlb.L1Latency {
			if cu < 0 {
				n.inFlight++
			}
			ev := n.newEvent(evIssueTranslated)
			ev.cu, ev.op, ev.addr = int32(cu), op, addr
			n.sys.engine.Schedule(now+lat, n.evH, ev)
			return
		}
	}
	n.issueTranslated(now, op, page, addr, cu)
}

func (n *node) issueTranslated(now sim.Cycle, op workload.Op, page migration.PageID, addr uint64, cu int) {
	owner := interconnect.NodeID(n.sys.policy.Owner(page, migration.Node(op.Home)))

	if n.sendRecv != nil {
		n.sendRecv.Add(0, 1)
		n.dests.Add(int(owner), 1)
	}

	if owner == n.id {
		// The page migrated to us earlier: a local access.
		if cu < 0 {
			n.inFlight++
		}
		done := now + n.memory.ServiceLatency(addr)
		ev := n.newEvent(evComplete)
		ev.cu = int32(cu)
		n.engine().Schedule(done, n.evH, ev)
		return
	}

	if n.sys.policy.RecordAccess(page, migration.Node(n.id), migration.Node(owner)) &&
		n.migrating.n < maxConcurrentMigrations && !n.migrating.has(page) {
		n.migrating.add(page)
		if cu < 0 {
			n.inFlight++
		}
		id := n.nextReqID()
		n.track(id, pendingOp{page: page, migrating: true, cu: int32(cu)})
		n.ep.SendControl(owner, interconnect.KindMigrReq, id, addr, secure.ReadReqBytes)
		return
	}

	if cu < 0 {
		n.inFlight++
	}
	id := n.nextReqID()
	n.track(id, pendingOp{page: page, cu: int32(cu)})
	switch op.Kind {
	case workload.Read:
		n.ep.SendControl(owner, interconnect.KindReadReq, id, addr, secure.ReadReqBytes)
	case workload.Write:
		n.sys.noteDataBlock(n.id, owner, now)
		n.ep.SendData(owner, interconnect.KindWriteReq, id, addr, n.payloadFor(addr), false)
	default:
		panic(fmt.Sprintf("machine: unknown op kind %d", op.Kind))
	}
}

func (n *node) nextReqID() uint64 {
	n.reqSeq++
	return uint64(n.id)<<48 | n.reqSeq
}

// track records a newly issued request as pending.
func (n *node) track(id uint64, op pendingOp) {
	p, _ := n.pending.Put(id)
	*p = op
}

// retire takes request id out of the pending table, returning its
// context, or ok=false when it is not pending.
func (n *node) retire(id uint64) (op pendingOp, ok bool) {
	p := n.pending.Get(id)
	if p == nil {
		return pendingOp{}, false
	}
	op = *p
	n.pending.Delete(id)
	return op, true
}

// complete retires one in-flight op and checks for trace completion.
func (n *node) complete(cu int) {
	if cu >= 0 {
		n.fe.OnComplete(cu)
	} else {
		n.inFlight--
	}
	n.completed++
	if n.completed == len(n.ops) && !n.done {
		n.done = true
		n.sys.gpuFinished()
		return
	}
	n.tryIssue()
}

// payloadFor synthesizes a deterministic 64B block for functional crypto
// runs; timing-only runs skip the allocation.
func (n *node) payloadFor(addr uint64) []byte {
	if !n.sys.opt.Functional {
		return nil
	}
	p := make([]byte, 64)
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], addr+uint64(i))
	}
	return p
}

// HandleData implements secure.Handler: decrypted data-bearing messages.
func (n *node) HandleData(now sim.Cycle, msg *interconnect.Message) {
	switch msg.Kind {
	case interconnect.KindDataResp:
		// A read we issued has returned.
		ctx, ok := n.retire(msg.ReqID)
		if !ok {
			// On a lossy fabric a retransmitted response can land after the
			// original (or after the operation was poison-failed).
			if n.sys.cfg.Secure {
				n.staleCompletions++
				return
			}
			panic(fmt.Sprintf("machine: %v got unknown data response %d", n.id, msg.ReqID))
		}
		n.complete(int(ctx.cu))

	case interconnect.KindWriteReq:
		// We are the home: commit the block, then acknowledge.
		if n.sendRecv != nil {
			n.sendRecv.Add(1, 1)
		}
		svc := n.memory.ServiceLatency(msg.Addr)
		ev := n.newEvent(evWriteCommit)
		ev.src, ev.id, ev.addr = msg.Src, msg.ReqID, msg.Addr
		n.engine().Schedule(now+svc, n.evH, ev)

	case interconnect.KindMigrChunk:
		// Page data landing in our memory; completion is signalled by
		// the MigrDone control message.

	default:
		panic(fmt.Sprintf("machine: %v got unexpected data kind %v", n.id, msg.Kind))
	}
}

// HandleControl implements secure.Handler: unprotected control messages.
func (n *node) HandleControl(now sim.Cycle, msg *interconnect.Message) {
	switch msg.Kind {
	case interconnect.KindReadReq:
		if n.sendRecv != nil {
			n.sendRecv.Add(1, 1)
		}
		svc := n.memory.ServiceLatency(msg.Addr)
		ev := n.newEvent(evServeRead)
		ev.src, ev.id, ev.addr = msg.Src, msg.ReqID, msg.Addr
		n.engine().Schedule(now+svc, n.evH, ev)

	case interconnect.KindWriteAck:
		ctx, ok := n.retire(msg.ReqID)
		if !ok {
			// A retransmitted write commits twice at the home, so its second
			// ack finds the operation already retired.
			if n.sys.cfg.Secure {
				n.staleCompletions++
				return
			}
			panic(fmt.Sprintf("machine: %v got unknown write ack %d", n.id, msg.ReqID))
		}
		n.complete(int(ctx.cu))

	case interconnect.KindMigrReq:
		n.serveMigration(now, msg)

	case interconnect.KindPoisoned:
		// A peer gave up on data addressed to us: fail the operation so the
		// simulation drains instead of waiting forever.
		ctx, ok := n.retire(msg.ReqID)
		if !ok {
			// Already completed (a copy got through before the sender gave
			// up) or already failed by an earlier poison for the same op.
			n.staleCompletions++
			return
		}
		if ctx.migrating {
			n.migrating.remove(ctx.page)
		}
		n.failedOps++
		n.complete(int(ctx.cu))

	case interconnect.KindMigrDone:
		ctx, ok := n.retire(msg.ReqID)
		if !ok || !ctx.migrating {
			// The migration may have been poison-failed while its (lossless)
			// completion signal was in flight.
			if n.sys.cfg.Secure && !ok {
				n.staleCompletions++
				return
			}
			panic(fmt.Sprintf("machine: %v got stray migration done %d", n.id, msg.ReqID))
		}
		n.migrating.remove(ctx.page)
		n.sys.policy.Migrate(ctx.page, migration.Node(n.id), migration.Node(homeOf(ctx.page)))
		if n.tlbH != nil {
			n.tlbH.Shootdown(uint64(ctx.page))
		}
		// TLB shootdown: the GPU's issue pipeline stalls.
		if until := now + migration.ShootdownCost; until > n.stallUntil {
			n.stallUntil = until
		}
		n.complete(int(ctx.cu))

	default:
		panic(fmt.Sprintf("machine: %v got unexpected control kind %v", n.id, msg.Kind))
	}
}

// HandlePoisoned implements secure.PoisonHandler: our endpoint abandoned a
// data block after exhausting retransmissions. If the affected operation is
// pending locally (a write we issued) it fails here; otherwise the victim is
// the remote requester, who is told over the lossless control plane.
func (n *node) HandlePoisoned(now sim.Cycle, dst interconnect.NodeID, kind interconnect.Kind, reqID uint64) {
	if ctx, ok := n.retire(reqID); ok {
		if ctx.migrating {
			n.migrating.remove(ctx.page)
		}
		n.failedOps++
		n.complete(int(ctx.cu))
		return
	}
	n.ep.SendControl(dst, interconnect.KindPoisoned, reqID, 0, secure.CtrlBytes)
}

// serveMigration streams a page's blocks to the requester followed by the
// completion signal. If ownership moved meanwhile, only the completion is
// sent; the requester will find the new owner through the page table.
func (n *node) serveMigration(now sim.Cycle, msg *interconnect.Message) {
	src, id := msg.Src, msg.ReqID
	page := pageOf(msg.Addr)
	if interconnect.NodeID(n.sys.policy.Owner(page, migration.Node(homeOf(page)))) != n.id {
		n.ep.SendControl(src, interconnect.KindMigrDone, id, msg.Addr, secure.CtrlBytes)
		return
	}
	blocks := n.sys.cfg.PageSize / n.sys.cfg.BlockSize
	svc := n.memory.ServiceLatency(msg.Addr)
	for i := 0; i < blocks; i++ {
		ev := n.newEvent(evMigrChunk)
		ev.src, ev.id, ev.addr = src, id, addrOf(page, uint8(i))
		n.engine().Schedule(now+svc+sim.Cycle(i), n.evH, ev)
	}
	ev := n.newEvent(evMigrDone)
	ev.src, ev.id, ev.addr = src, id, msg.Addr
	n.engine().Schedule(now+svc+sim.Cycle(blocks), n.evH, ev)
}
