// Package sim provides the discrete-event simulation kernel that drives the
// secure multi-GPU model. It plays the role MGPUSim's Akita engine plays in
// the paper: components schedule events at future cycles and the engine
// executes them in deterministic time order.
//
// Time is measured in integer cycles of the 1 GHz GPU clock (Table III of the
// paper), so one cycle equals one nanosecond. Events fire in (cycle, push
// order): same-cycle events run first-scheduled first, which makes every
// simulation bit-reproducible for a given configuration and seed.
//
// The event queue is a calendar queue with one cycle per bucket. A ring of
// ringSize per-cycle FIFO buckets covers the window [base, base+ringSize);
// each bucket is an intrusive list threaded through a pointer-free meta
// slab, and a bitmap of non-empty buckets finds the next busy cycle a word
// at a time. Events at or beyond the window's end wait in an overflow
// heap ordered by (cycle, seq), where seq counts pushes. Whenever the base
// advances, the overflow events the window now covers move into their
// buckets in heap order.
//
// The order is exactly the (cycle, push order) of a single heap. Within
// the window a bucket is a FIFO. An event goes to the overflow heap only
// while its cycle is outside the window, and the base only moves forward,
// so every overflow event for a cycle was pushed before any event that
// reached that cycle's bucket directly; migration appends them, in seq
// order, to a bucket that is still empty. The base moves only to a live
// event about to run, so it never passes now and any Schedule at or after
// now lands in order.
//
// Each event's Handler and Payload live in a body slab, recycled through a
// free list and zeroed when the event leaves the queue, so a drained queue
// pins nothing. The ring, the meta slab and the overflow heap hold no
// pointers, so moving events through them needs no GC write barriers.
//
// An engine's ring and slabs outlive it: Storage.NewEngine lends them to
// a new engine and Release hands them back, body slab zeroed and every
// slab truncated, so an engine on recycled storage schedules and runs
// with zero allocations from its first event. The Engine itself is never
// reused: a released one panics on Schedule, Cancel and Run. A recycled
// ring needs only its busy bitmap cleared, since a bucket means something
// only under a set bit, and event order never depends on slab indices, so
// recycling cannot change a result.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, in GPU clock cycles.
type Cycle uint64

// MaxCycle is the largest representable simulation time. It is used as the
// "never" sentinel by components that need an inactive deadline.
const MaxCycle Cycle = math.MaxUint64

// Handler consumes an event when its scheduled cycle is reached.
type Handler interface {
	// Handle is invoked exactly once, at the event's scheduled cycle.
	Handle(ev Event)
}

// HandlerFunc adapts a plain function to the Handler interface.
type HandlerFunc func(ev Event)

// Handle calls f(ev).
func (f HandlerFunc) Handle(ev Event) { f(ev) }

// Event is a unit of scheduled work.
type Event struct {
	// At is the cycle the event fires.
	At Cycle
	// Handler receives the event.
	Handler Handler
	// Payload carries arbitrary event data; its type is a contract between
	// the scheduling component and the handler. Hot paths store
	// pointer-typed values, which the runtime represents in an interface
	// without allocating.
	Payload any
}

// meta is the pointer-free half of a queued event, indexed like its body:
// next links it to the following event of its cycle's bucket, and
// slot/gen tie it to a timer slab entry when it was created by
// ScheduleTimer; slot is noSlot for plain events. A cancelled timer's
// event stays queued (lazy deletion) and is discarded when it surfaces.
type meta struct {
	next int32
	slot int32
	gen  uint32
}

// body is the pointer-carrying half of a queued event.
type body struct {
	h Handler
	p any
}

// The ring holds ringSize one-cycle buckets: every queued event less than
// ringSize cycles past the window base. On a 16-GPU secure cell 97% of
// pushes land inside a 2,048-cycle window (92% inside 1,024, which halves
// the memory but doubles the overflow traffic); the far ones are mostly
// retransmit timers, which the ACK cancels long before they come due. The
// ring and its bitmap take 16.25 KiB per Storage.
const (
	ringBits = 11
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
)

// bucket is one cycle's FIFO, an intrusive list of body indices linked
// through meta.next. Its fields are meaningful only while the calendar's
// busy bit for it is set.
type bucket struct{ head, tail int32 }

// calendar is the ring, pointer-free: the buckets and a bitmap of the
// non-empty ones, so finding the next busy cycle scans 64 cycles per word.
type calendar struct {
	busy    [ringSize / 64]uint64
	buckets [ringSize]bucket
}

// far is an overflow event: one at or beyond the window's end, ordered by
// (At, seq) in the overflow heap until the window reaches it.
type far struct {
	At  Cycle
	seq uint64
	idx int32
}

// noSlot marks an event that is not backed by a cancellable timer.
const noSlot int32 = -1

// Engine is a deterministic discrete-event scheduler. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now     Cycle
	stopped bool

	// The queue: cal's buckets hold the events in [base, base+ringSize),
	// near counts them, and over is the overflow heap of later events.
	// base never passes now. nextSeq stamps overflow events in push order.
	base    Cycle
	cal     *calendar
	near    int
	nextSeq uint64

	// slabs holds the growable arrays: the event body and meta slabs,
	// the overflow heap and the timer slab. st is the Storage that lent
	// them and the ring; nil once Release handed them back.
	slabs
	st *Storage

	// EventLimit bounds the number of events processed by Run as a runaway
	// guard; zero means no limit.
	EventLimit uint64
	// Check, when non-nil, is polled once every checkInterval processed
	// events inside Run; a non-nil return aborts the run with that error.
	// The poll schedules nothing and mutates nothing, so enabling it does
	// not perturb the deterministic event order (golden digests are
	// unaffected). machine.RunContext uses it for context cancellation.
	Check     func() error
	processed uint64

	// dead counts cancelled timer events still queued.
	dead int
}

// slabs are an engine's growable arrays. A Storage keeps them with length
// zero and a zeroed body slab, so they pin no Handler or Payload.
type slabs struct {
	// bodies[i] and meta[i] are the two halves of queued event i;
	// bodyFree lists the zeroed entries ready for reuse.
	bodies   []body
	meta     []meta
	bodyFree []int32
	// over is the overflow heap of events beyond the window.
	over []far
	// Timer slab: timerGen[slot] is the generation a live timer event
	// must match to fire; Cancel bumps it so the queued event dies in
	// place. timerFree recycles slots.
	timerGen  []uint32
	timerFree []int32
}

// Storage is the recyclable backing of one engine at a time: the calendar
// ring and the slabs. The zero value is empty storage.
type Storage struct {
	cal *calendar
	slabs
}

// NewEngine returns an empty engine at cycle 0 on fresh storage.
func NewEngine() *Engine { return new(Storage).NewEngine() }

// NewEngine returns an empty engine at cycle 0 on st's ring and slabs,
// lent until the engine's Release.
func (st *Storage) NewEngine() *Engine {
	e := &Engine{cal: st.cal, slabs: st.slabs, st: st}
	if e.cal == nil {
		e.cal = new(calendar)
	} else {
		e.cal.busy = [ringSize / 64]uint64{}
	}
	*st = Storage{}
	return e
}

// Release ends the engine's life and hands its ring and slabs back to the
// Storage it was built on. Queued events are dropped unrun. Afterwards
// Schedule, ScheduleTimer, Run, RunUntil and Timer.Cancel/Active panic;
// Now and Processed keep reporting the final state. Releasing twice is a
// no-op.
func (e *Engine) Release() {
	st := e.st
	if st == nil {
		return
	}
	e.st = nil
	clear(e.bodies)
	st.cal = e.cal
	st.slabs = slabs{
		bodies:    e.bodies[:0],
		meta:      e.meta[:0],
		bodyFree:  e.bodyFree[:0],
		over:      e.over[:0],
		timerGen:  e.timerGen[:0],
		timerFree: e.timerFree[:0],
	}
	e.cal, e.slabs = nil, slabs{}
}

// mustLive panics when the engine has been released.
func (e *Engine) mustLive() {
	if e.st == nil {
		panic("sim: engine used after Release")
	}
}

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Schedule enqueues an event at the given absolute cycle. Scheduling in the
// past panics: it always indicates a component bug, and silently reordering
// time would destroy the causality the whole model depends on.
func (e *Engine) Schedule(at Cycle, h Handler, payload any) {
	e.mustLive()
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at cycle %d before now %d", at, e.now))
	}
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	e.push(at, h, payload, noSlot, 0)
}

// ScheduleAfter enqueues an event delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, h Handler, payload any) {
	e.Schedule(e.now+delay, h, payload)
}

// Pending reports the number of live events not yet processed. Cancelled
// timer events still occupying the queue are not counted.
func (e *Engine) Pending() int { return e.near + len(e.over) - e.dead }

// Processed reports the number of events handled so far.
func (e *Engine) Processed() uint64 { return e.processed }

// TimerSlab reports the cancellable-timer slab occupancy for diagnostics:
// slots is the slab's total size, held is the slots not on the free list
// (armed timers plus cancelled events awaiting lazy reclamation), and dead
// is the cancelled events still occupying the queue. A wedged component
// shows up here as held timers that never retire.
func (e *Engine) TimerSlab() (slots, held, dead int) {
	return len(e.timerGen), len(e.timerGen) - len(e.timerFree), e.dead
}

// Stop makes Run (or RunUntil) return after the current event completes.
// Components use it to end a simulation when their termination condition is
// met. A stop raised during RunUntil persists until the next RunUntil call
// consumes it, so a stopped simulation does not silently advance to the
// next call's limit.
func (e *Engine) Stop() { e.stopped = true }

// checkInterval is how many processed events elapse between Check polls.
// Large enough that the indirect call cost vanishes, small enough that a
// cancelled context stops a run within milliseconds.
const checkInterval = 16384

// Run processes events in (cycle, sequence) order until the queue drains,
// Stop is called, EventLimit is hit, or Check reports an error. It returns
// the final cycle and an error if the event limit was exceeded or Check
// failed.
func (e *Engine) Run() (Cycle, error) {
	e.mustLive()
	e.stopped = false
	for !e.stopped {
		if _, ok := e.peek(MaxCycle); !ok {
			break
		}
		ev := e.take()
		if ev.At < e.now {
			panic("sim: event queue time regression")
		}
		e.now = ev.At
		e.processed++
		if e.EventLimit > 0 && e.processed > e.EventLimit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at cycle %d", e.EventLimit, e.now)
		}
		if e.Check != nil && e.processed%checkInterval == 0 {
			if err := e.Check(); err != nil {
				return e.now, err
			}
		}
		ev.Handler.Handle(ev)
	}
	return e.now, nil
}

// RunUntil processes events with cycle <= limit, leaving later events
// queued and advancing time to limit when the queue runs ahead of it. If a
// handler called Stop during a previous RunUntil, the pending stop is
// consumed and the call returns immediately without advancing time.
func (e *Engine) RunUntil(limit Cycle) (Cycle, error) {
	e.mustLive()
	if e.stopped {
		e.stopped = false
		return e.now, nil
	}
	for {
		next, ok := e.peek(limit)
		if !ok || next > limit {
			break
		}
		ev := e.take()
		e.now = ev.At
		e.processed++
		if e.EventLimit > 0 && e.processed > e.EventLimit {
			return e.now, fmt.Errorf("sim: event limit %d exceeded at cycle %d", e.EventLimit, e.now)
		}
		ev.Handler.Handle(ev)
		if e.stopped {
			// Leave the stop pending: the next RunUntil call consumes it
			// instead of advancing to its own limit.
			return e.now, nil
		}
	}
	if limit > e.now {
		e.now = limit
	}
	return e.now, nil
}

// peek retires cancelled timer events ahead of the next live event and
// reports that event's cycle; ok is false when the queue is drained. It
// moves the window base only to a live event at or before limit, which
// the caller takes next, so base never passes now and a later Schedule
// between now and the next event still lands in the window in order.
func (e *Engine) peek(limit Cycle) (Cycle, bool) {
	for {
		if e.near == 0 {
			// The ring is empty: jump the window to the first live
			// overflow event.
			for len(e.over) > 0 && !e.live(e.over[0].idx) {
				e.retire(e.farPop().idx)
			}
			if len(e.over) == 0 {
				return 0, false
			}
			at := e.over[0].At
			if at > limit {
				return at, true
			}
			e.advance(at)
		}
		at := e.nextBusy()
		if at > limit {
			return at, true
		}
		i := int(at & ringMask)
		if idx := e.cal.buckets[i].head; !e.live(idx) {
			e.unlink(i)
			e.retire(idx)
			continue
		}
		if at != e.base {
			e.advance(at)
		}
		return at, true
	}
}

// take removes the event at the head of the base cycle's bucket —
// guaranteed live by a preceding peek — and retires its timer slot: a
// fired timer's generation is bumped (making Cancel a no-op) and the slot
// is recycled.
func (e *Engine) take() Event {
	idx := e.unlink(int(e.base & ringMask))
	if slot := e.meta[idx].slot; slot != noSlot {
		e.timerGen[slot]++
		e.timerFree = append(e.timerFree, slot)
	}
	b := e.bodies[idx]
	e.release(idx)
	return Event{At: e.base, Handler: b.h, Payload: b.p}
}

// live reports whether queued event idx is a plain event or an uncancelled
// timer.
func (e *Engine) live(idx int32) bool {
	m := &e.meta[idx]
	return m.slot == noSlot || e.timerGen[m.slot] == m.gen
}

// retire discards cancelled timer event idx, recycling its body and slot.
func (e *Engine) retire(idx int32) {
	e.timerFree = append(e.timerFree, e.meta[idx].slot)
	e.dead--
	e.release(idx)
}

// release zeroes body idx, so the slab pins no Handler or Payload, and
// returns it to the free list.
func (e *Engine) release(idx int32) {
	e.bodies[idx] = body{}
	e.bodyFree = append(e.bodyFree, idx)
}

// push stores the event's halves in the slabs and queues it: in its
// cycle's bucket when the cycle is inside the window, else in the overflow
// heap.
func (e *Engine) push(at Cycle, h Handler, payload any, slot int32, gen uint32) {
	var idx int32
	if n := len(e.bodyFree); n > 0 {
		idx = e.bodyFree[n-1]
		e.bodyFree = e.bodyFree[:n-1]
		e.bodies[idx] = body{h: h, p: payload}
		e.meta[idx] = meta{slot: slot, gen: gen}
	} else {
		idx = int32(len(e.bodies))
		e.bodies = append(e.bodies, body{h: h, p: payload})
		e.meta = append(e.meta, meta{slot: slot, gen: gen})
	}
	if at-e.base < ringSize {
		e.enqueue(at, idx)
		return
	}
	e.nextSeq++
	e.farPush(far{At: at, seq: e.nextSeq, idx: idx})
}

// advance moves the window base forward to `to` and migrates, in heap
// order, every overflow event the window now covers into its bucket,
// dropping cancelled timers on the way. Each cycle entering the window
// has an empty bucket, and every event the heap holds for it was pushed
// before any later push could reach the bucket directly, so appending
// them in (At, seq) order keeps each bucket in push order.
func (e *Engine) advance(to Cycle) {
	e.base = to
	for len(e.over) > 0 && e.over[0].At-to < ringSize {
		f := e.farPop()
		if e.live(f.idx) {
			e.enqueue(f.At, f.idx)
		} else {
			e.retire(f.idx)
		}
	}
}

// enqueue appends event idx to the tail of cycle at's bucket.
func (e *Engine) enqueue(at Cycle, idx int32) {
	c := e.cal
	i := int(at & ringMask)
	w, bit := i>>6, uint64(1)<<(i&63)
	if c.busy[w]&bit == 0 {
		c.busy[w] |= bit
		c.buckets[i] = bucket{head: idx, tail: idx}
	} else {
		e.meta[c.buckets[i].tail].next = idx
		c.buckets[i].tail = idx
	}
	e.near++
}

// unlink removes and returns the head of bucket i, which must be busy.
func (e *Engine) unlink(i int) int32 {
	c := e.cal
	b := &c.buckets[i]
	idx := b.head
	if idx == b.tail {
		c.busy[i>>6] &^= 1 << (i & 63)
	} else {
		b.head = e.meta[idx].next
	}
	e.near--
	return idx
}

// nextBusy returns the earliest cycle with a non-empty bucket; the ring
// must hold at least one event. Bits below base's position stand for the
// window's wrapped end, so they are scanned last.
func (e *Engine) nextBusy() Cycle {
	busy := &e.cal.busy
	start := int(e.base & ringMask)
	w := start >> 6
	word := busy[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		w = (w + 1) & (len(busy) - 1)
		word = busy[w]
	}
	i := w<<6 | bits.TrailingZeros64(word)
	return e.base + Cycle((i-start)&ringMask)
}

// farLess orders overflow events by (cycle, sequence).
func farLess(a, b *far) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

// farPush inserts f into the overflow heap, sifting up.
func (e *Engine) farPush(f far) {
	q := append(e.over, f)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(&f, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = f
	e.over = q
}

// farPop removes and returns the overflow heap's minimum, sifting the last
// entry down from the root.
func (e *Engine) farPop() far {
	q := e.over
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	e.over = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && farLess(&q[r], &q[l]) {
			m = r
		}
		if !farLess(&q[m], &last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
