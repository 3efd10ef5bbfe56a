package otp

import (
	"secmgpu/internal/crypto"
	"secmgpu/internal/sim"
)

// Adjustable is a pad table whose per-stream allocations can be changed at
// run time. It provides the mechanism used by the paper's Dynamic scheme
// (implemented in internal/core): Private-style per-pair counters with
// depths that a policy re-partitions on the fly.
type Adjustable struct {
	queues [2][]padQueue
	eng    *crypto.Engine
	aesLat sim.Cycle
	stats  Stats
}

// NewAdjustable builds an adjustable table with the given uniform initial
// depth per (direction, peer) stream, pre-generating at cycle 0.
func NewAdjustable(peers, initialDepth int, eng *crypto.Engine) *Adjustable {
	if peers < 1 || initialDepth < 0 {
		panic("otp: Adjustable needs at least one peer and a non-negative depth")
	}
	a := &Adjustable{eng: eng, aesLat: eng.Latency}
	for d := range a.queues {
		a.queues[d] = make([]padQueue, peers)
		for i := range a.queues[d] {
			a.queues[d][i] = newPadQueue(initialDepth, eng.Latency)
		}
	}
	return a
}

// Depth returns the current allocation of one stream.
func (a *Adjustable) Depth(dir Direction, peer int) int {
	return a.queues[dir][peer].depth
}

// TotalDepth returns the summed allocation across all streams.
func (a *Adjustable) TotalDepth() int {
	var t int
	for d := range a.queues {
		for i := range a.queues[d] {
			t += a.queues[d][i].depth
		}
	}
	return t
}

// SetDepth re-allocates one stream at cycle now. Growth issues new pad
// generations immediately; shrinking abandons the farthest-ahead pads.
func (a *Adjustable) SetDepth(dir Direction, peer, depth int, now sim.Cycle) {
	if depth < 0 {
		panic("otp: negative depth")
	}
	a.queues[dir][peer].setDepth(depth, now)
}

// UseSend consumes the next send pad for peer.
func (a *Adjustable) UseSend(now sim.Cycle, peer int) Use {
	ctr, stall := a.queues[Send][peer].use(now)
	u := Use{Ctr: ctr, Stall: stall, Outcome: classify(stall, a.aesLat)}
	a.stats.record(Send, u)
	return u
}

// UseRecv consumes the receive pad for peer's counter ctr, resyncing on a
// prediction failure.
func (a *Adjustable) UseRecv(now sim.Cycle, peer int, ctr uint64) Use {
	q := &a.queues[Recv][peer]
	if q.nextCtr != ctr {
		q.resync(ctr, now)
	}
	got, stall := q.use(now)
	u := Use{Ctr: got, Stall: stall, Outcome: classify(stall, a.aesLat)}
	a.stats.record(Recv, u)
	return u
}

// ResyncSend jumps peer's send stream forward to ctr, invalidating its
// buffered pads. The stream's depth (and so the Dynamic policy's current
// partition) is untouched: invalidation and re-partitioning compose.
func (a *Adjustable) ResyncSend(now sim.Cycle, peer int, ctr uint64) {
	if q := &a.queues[Send][peer]; ctr > q.nextCtr {
		q.resync(ctr, now)
	}
}

// ResyncRecv aligns peer's receive stream to expect ctr next.
func (a *Adjustable) ResyncRecv(now sim.Cycle, peer int, ctr uint64) {
	if q := &a.queues[Recv][peer]; ctr != q.nextCtr {
		q.resync(ctr, now)
	}
}

// Stats returns the accumulated outcome counts.
func (a *Adjustable) Stats() *Stats { return &a.stats }
