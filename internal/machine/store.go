package machine

import (
	"runtime"
	"sync/atomic"

	"secmgpu/internal/interconnect"
	"secmgpu/internal/mem"
	"secmgpu/internal/migration"
	"secmgpu/internal/secure"
	"secmgpu/internal/sim"
)

// cellStore is one entry of the cell store (DESIGN.md §11): the storage a
// released cell leaves for the next one. New lends each part to the
// component that uses it and release hands it back; each package's
// Storage applies that package's retention caps.
type cellStore struct {
	engine sim.Storage
	fabric interconnect.Storage
	caches mem.Storage
	pages  migration.Storage
	nodes  []nodeStore
	bursts [2][]burstPair
}

// nodeStore is one node's part: its endpoint's storage, its pending
// table, which the node uses in place, and its event free list. The table
// is capped by maxParkedPending; the free list needs no cap, as it holds
// the node's peak count of queued events (at most 217 on any node of a
// `secbench -exp all` pass).
type nodeStore struct {
	ep      secure.Storage
	pending sim.IDTable[pendingOp]
	evFree  *nodeEvent
}

// maxParkedNodes is the largest cell, in nodes, whose entry is parked: a
// 16-GPU cell and its CPU.
const maxParkedNodes = 17

// cellStores holds the parked entries; the first GOMAXPROCS slots are
// used, one per cell that can run at once. Each cell owns its entry while
// it lives, so a slot is taken and filled with one atomic operation.
// Unlike a sync.Pool's, the slots survive garbage collection: a sweep
// worker that waits out a straggler cell finds its entry again instead of
// building one while the dropped one is still on the heap.
var cellStores [64]atomic.Pointer[cellStore]

func parkedSlots() []atomic.Pointer[cellStore] {
	return cellStores[:min(runtime.GOMAXPROCS(0), len(cellStores))]
}

// takeStore returns a parked entry, or a new one, with room for nodes
// nodes.
func takeStore(nodes int) *cellStore {
	st := &cellStore{}
	for i := range parkedSlots() {
		if p := cellStores[i].Swap(nil); p != nil {
			st = p
			break
		}
	}
	if len(st.nodes) < nodes {
		st.nodes = append(st.nodes, make([]nodeStore, nodes-len(st.nodes))...)
	}
	return st
}

// parkStore parks st in a free slot, or leaves it to the collector when
// every slot is taken or st served more than maxParkedNodes nodes.
func parkStore(st *cellStore) {
	if len(st.nodes) > maxParkedNodes {
		return
	}
	for i := range parkedSlots() {
		if cellStores[i].CompareAndSwap(nil, st) {
			return
		}
	}
}
