package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimerCancelBeforeFire(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.ScheduleTimer(10, HandlerFunc(func(Event) { fired = true }), nil)
	if !tm.Active() {
		t.Fatal("timer not active after scheduling")
	}
	if !tm.Cancel() {
		t.Fatal("Cancel returned false for a pending timer")
	}
	if tm.Active() {
		t.Fatal("timer still active after Cancel")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d after cancelling the only event, want 0", e.Pending())
	}
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if end != 0 {
		t.Fatalf("end=%d, want 0 (cancelled event must not advance time)", end)
	}
}

func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := e.ScheduleTimer(10, HandlerFunc(func(Event) { fired++ }), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	if tm.Active() {
		t.Fatal("timer reports active after firing")
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestTimerDoubleCancelIsNoop(t *testing.T) {
	e := NewEngine()
	tm := e.ScheduleTimer(10, HandlerFunc(func(Event) {}), nil)
	if !tm.Cancel() {
		t.Fatal("first Cancel failed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d, want 0", e.Pending())
	}
}

func TestTimerZeroValueIsInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Fatal("zero timer reports active")
	}
	if tm.Cancel() {
		t.Fatal("zero timer Cancel returned true")
	}
}

func TestTimerRearm(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	h := HandlerFunc(func(ev Event) { fired = append(fired, ev.At) })
	tm := e.ScheduleTimer(10, h, nil)
	// Re-arm: cancel the pending shot and schedule a replacement. The slot
	// is recycled through the slab, so the handle generations must keep the
	// two shots distinct.
	if !tm.Cancel() {
		t.Fatal("Cancel failed")
	}
	tm = e.ScheduleTimer(25, h, nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 1 || fired[0] != 25 {
		t.Fatalf("fired=%v, want [25]", fired)
	}
	if tm.Active() {
		t.Fatal("re-armed timer still active after firing")
	}
}

// TestTimerSlotReuseDoesNotResurrect pins the slab invariant: a slot
// recycled to a new timer must not make a stale handle cancel the new
// owner's event.
func TestTimerSlotReuseDoesNotResurrect(t *testing.T) {
	e := NewEngine()
	firstFired, secondFired := false, false
	first := e.ScheduleTimer(10, HandlerFunc(func(Event) { firstFired = true }), nil)
	first.Cancel()
	// Drain the cancelled event so the slot returns to the free list.
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	second := e.ScheduleTimer(20, HandlerFunc(func(Event) { secondFired = true }), nil)
	if first.Cancel() {
		t.Fatal("stale handle cancelled the slot's new owner")
	}
	if first.Active() {
		t.Fatal("stale handle reports active")
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firstFired || !secondFired {
		t.Fatalf("firstFired=%v secondFired=%v, want false,true", firstFired, secondFired)
	}
	if !second.Active() == false {
		t.Fatal("second timer should be spent after firing")
	}
}

func TestTimerCancelInsideHandler(t *testing.T) {
	e := NewEngine()
	var later Timer
	laterFired := false
	e.Schedule(5, HandlerFunc(func(Event) { later.Cancel() }), nil)
	later = e.ScheduleTimer(10, HandlerFunc(func(Event) { laterFired = true }), nil)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if laterFired {
		t.Fatal("timer cancelled at cycle 5 still fired at 10")
	}
	if end != 5 {
		t.Fatalf("end=%d, want 5", end)
	}
}

// TestRunUntilStopDoesNotAdvanceToLimit is the regression test for the
// Stop-then-RunUntil bug: a Stop raised by a handler used to be forgotten
// by the next RunUntil call, whose early-return path still advanced e.now
// to the limit.
func TestRunUntilStopDoesNotAdvanceToLimit(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.Schedule(10, HandlerFunc(func(ev Event) {
		fired = append(fired, ev.At)
		e.Stop()
	}), nil)
	e.Schedule(500, HandlerFunc(func(ev Event) { fired = append(fired, ev.At) }), nil)

	end, err := e.RunUntil(100)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != 10 {
		t.Fatalf("stopped RunUntil returned %d, want 10", end)
	}
	// The next call consumes the pending stop without touching the clock.
	end, err = e.RunUntil(1000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != 10 || e.Now() != 10 {
		t.Fatalf("post-stop RunUntil advanced to %d (now=%d), want 10", end, e.Now())
	}
	if len(fired) != 1 {
		t.Fatalf("fired=%v, want just the event at 10", fired)
	}
	// With the stop consumed, simulation resumes normally.
	end, err = e.RunUntil(1000)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != 1000 || len(fired) != 2 || fired[1] != 500 {
		t.Fatalf("resume: end=%d fired=%v, want 1000 and event at 500", end, fired)
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(50, HandlerFunc(func(Event) {}), nil)
	if _, err := e.RunUntil(100); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// A later call with an earlier limit must not move time backwards.
	end, err := e.RunUntil(80)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if end != 100 || e.Now() != 100 {
		t.Fatalf("clock rewound: end=%d now=%d, want 100", end, e.Now())
	}
}

// refEvent/refHeap reimplement the pre-rewrite container/heap queue so the
// property test below can prove the specialized queue pops in the identical
// (cycle, seq) order under random workloads.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)       { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any         { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }
func (h *refHeap) push(ev refEvent) { heap.Push(h, ev) }
func (h *refHeap) popMin() refEvent { return heap.Pop(h).(refEvent) }

// orderSpans are the delay ranges the order tests draw from: one well
// inside the calendar window, with heavy cycle ties, and one reaching
// several windows ahead, so events go through the overflow heap and
// migrate into the ring.
var orderSpans = [...]int{50, 4 * ringSize}

func TestQueueMatchesContainerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		span := orderSpans[trial%len(orderSpans)]
		e := NewEngine()
		ref := &refHeap{}
		var popped []int

		// Random workload: interleaved schedules (with cycle ties) and
		// fires.
		n := 1 + rng.Intn(200)
		var seq uint64
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(span))
			id := i
			seq++
			ref.push(refEvent{at: at, seq: seq, id: id})
			e.Schedule(at, HandlerFunc(func(Event) { popped = append(popped, id) }), nil)
			if rng.Intn(4) == 0 {
				// Same-cycle duplicate to stress tie-breaking.
				dup := i + 10000
				seq++
				ref.push(refEvent{at: at, seq: seq, id: dup})
				e.Schedule(at, HandlerFunc(func(Event) { popped = append(popped, dup) }), nil)
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}

		want := make([]int, 0, ref.Len())
		for ref.Len() > 0 {
			want = append(want, ref.popMin().id)
		}
		if len(popped) != len(want) {
			t.Fatalf("trial %d: popped %d events, reference %d", trial, len(popped), len(want))
		}
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("trial %d: divergence at pop %d: got id %d, reference id %d",
					trial, i, popped[i], want[i])
			}
		}
	}
}

// TestQueueOrderWithCancellations extends the property to timers: random
// cancellations must not perturb the relative order of surviving events.
func TestQueueOrderWithCancellations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		span := orderSpans[trial%len(orderSpans)]
		e := NewEngine()
		ref := &refHeap{}
		var popped, want []int

		n := 1 + rng.Intn(150)
		timers := make([]Timer, 0, n)
		cancelled := make(map[int]bool)
		var seq uint64
		for i := 0; i < n; i++ {
			at := Cycle(rng.Intn(span))
			id := i
			seq++
			ref.push(refEvent{at: at, seq: seq, id: id})
			timers = append(timers, e.ScheduleTimer(at, HandlerFunc(func(Event) {
				popped = append(popped, id)
			}), nil))
		}
		for i := range timers {
			if rng.Intn(3) == 0 {
				if timers[i].Cancel() {
					cancelled[i] = true
				}
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		for ref.Len() > 0 {
			ev := ref.popMin()
			if !cancelled[ev.id] {
				want = append(want, ev.id)
			}
		}
		if len(popped) != len(want) {
			t.Fatalf("trial %d: popped %d events, reference %d survivors", trial, len(popped), len(want))
		}
		for i := range want {
			if popped[i] != want[i] {
				t.Fatalf("trial %d: divergence at pop %d: got id %d, reference id %d",
					trial, i, popped[i], want[i])
			}
		}
	}
}

// TestScheduleZeroAlloc pins the tentpole: steady-state scheduling and
// running must not allocate. Pointer payloads ride the interface without
// boxing, and the specialized heap moves events by value.
func TestScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := HandlerFunc(func(Event) {})
	payload := &struct{ x int }{}
	// Warm up so the queue's backing array reaches steady-state capacity.
	for i := 0; i < 1024; i++ {
		e.Schedule(e.Now()+1, h, payload)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.Schedule(e.Now()+Cycle(i%7)+1, h, payload)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule/Run allocates %.1f times per run, want 0", avg)
	}
}

// TestQueueMixedOrderWithCancellations interleaves plain events, timers and
// cancellations, before the run, from inside handlers and between RunUntil
// calls that stop short of the next event, and checks each pop in lockstep
// against the container/heap reference: the surviving events fire in
// (cycle, seq) order, and Cancel and Pending agree with it. Half the trials
// draw delays of several calendar windows, with rare idle gaps of many
// windows, so events cross the overflow heap, migrate on one-cycle steps
// and on jumps, and cancelled overflow timers cross migrations.
func TestQueueMixedOrderWithCancellations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		span := orderSpans[trial%len(orderSpans)]
		e := NewEngine()
		ref := &refHeap{}
		var seq uint64
		var timers []Timer
		var timerIDs []int
		cancelled := map[int]bool{}
		fired := map[int]bool{}
		nextID, budget := 0, 400

		var schedule func()
		handler := func(id int) HandlerFunc {
			return func(Event) {
				for ref.Len() > 0 && cancelled[(*ref)[0].id] {
					ref.popMin()
				}
				if ref.Len() == 0 {
					t.Fatalf("trial %d: id %d fired, reference is drained", trial, id)
				}
				if want := ref.popMin(); want.id != id || want.at != e.Now() {
					t.Fatalf("trial %d: fired id %d at %d, reference id %d at %d", trial, id, e.Now(), want.id, want.at)
				}
				fired[id] = true
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			}
		}
		schedule = func() {
			if nextID >= budget {
				return
			}
			switch rng.Intn(3) {
			case 0, 1:
				id := nextID
				nextID++
				at := e.Now() + Cycle(rng.Intn(span))
				if rng.Intn(50) == 0 {
					at += 20 * ringSize
				}
				seq++
				ref.push(refEvent{at: at, seq: seq, id: id})
				if rng.Intn(2) == 0 {
					e.Schedule(at, handler(id), nil)
				} else {
					timers = append(timers, e.ScheduleTimer(at, handler(id), nil))
					timerIDs = append(timerIDs, id)
				}
			case 2:
				if len(timers) == 0 {
					return
				}
				i := rng.Intn(len(timers))
				id := timerIDs[i]
				want := !fired[id] && !cancelled[id]
				if got := timers[i].Cancel(); got != want {
					t.Fatalf("trial %d: Cancel(id %d)=%v, want %v", trial, id, got, want)
				}
				if want {
					cancelled[id] = true
				}
			}
		}
		checkPending := func(when string) {
			live := 0
			for _, ev := range *ref {
				if !cancelled[ev.id] {
					live++
				}
			}
			if e.Pending() != live {
				t.Fatalf("trial %d, %s: Pending()=%d, reference has %d live", trial, when, e.Pending(), live)
			}
		}
		for i := 0; i < 1+rng.Intn(100); i++ {
			schedule()
		}
		checkPending("before the run")
		// Every other pair of trials steps with RunUntil, scheduling from
		// outside between steps: the limit often falls short of the next
		// event, so the new events land between now and the queue's head.
		for trial/2%2 == 1 && e.Pending() > 0 {
			limit := e.Now() + Cycle(rng.Intn(span))
			end, err := e.RunUntil(limit)
			if err != nil {
				t.Fatalf("trial %d: RunUntil: %v", trial, err)
			}
			if end != limit {
				t.Fatalf("trial %d: RunUntil(%d) returned %d", trial, limit, end)
			}
			checkPending("between RunUntil calls")
			for n := rng.Intn(3); n > 0; n-- {
				schedule()
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		for ref.Len() > 0 {
			if ev := ref.popMin(); !cancelled[ev.id] {
				t.Fatalf("trial %d: id %d never fired", trial, ev.id)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: Pending()=%d after drain", trial, e.Pending())
		}
		if _, held, dead := e.TimerSlab(); held != 0 || dead != 0 {
			t.Fatalf("trial %d: TimerSlab held=%d dead=%d after drain, want 0, 0", trial, held, dead)
		}
	}
}

// TestOverflowAndRingEventsShareCycleInPushOrder pins the migration order
// at the window's edge: events pushed to a cycle while it is beyond the
// window migrate into its bucket ahead of events pushed after the window
// reached it, cancelled overflow timers drop out on the way, and a
// same-cycle event scheduled while the cycle runs goes last.
func TestOverflowAndRingEventsShareCycleInPushOrder(t *testing.T) {
	const at = 3*ringSize + 7
	e := NewEngine()
	var got []string
	rec := func(name string) HandlerFunc {
		return func(ev Event) {
			if ev.At != at {
				t.Errorf("%s fired at %d, want %d", name, ev.At, at)
			}
			got = append(got, name)
		}
	}
	e.Schedule(at, HandlerFunc(func(Event) {
		got = append(got, "far1")
		e.Schedule(at, rec("same"), nil)
	}), nil)
	e.ScheduleTimer(at, rec("far2"), nil)
	e.ScheduleTimer(at, rec("cancelled in overflow"), nil).Cancel()
	late := e.ScheduleTimer(at, rec("cancelled in ring"), nil)
	e.Schedule(at, rec("far3"), nil)
	// The first cycle whose window reaches at: the jump to it migrates
	// the far events, then its handler pushes straight into the bucket.
	e.Schedule(at-ringSize+1, HandlerFunc(func(Event) {
		e.Schedule(at, rec("near1"), nil)
		late.Cancel()
	}), nil)
	e.Schedule(at-1, HandlerFunc(func(Event) { e.Schedule(at, rec("near2"), nil) }), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"far1", "far2", "far3", "near1", "near2", "same"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if _, held, dead := e.TimerSlab(); held != 0 || dead != 0 {
		t.Fatalf("TimerSlab held=%d dead=%d after drain, want 0, 0", held, dead)
	}
}

// TestRunUntilShortThenScheduleBeforeHead checks that a RunUntil stopping
// short of the queue's head leaves the window where a later Schedule
// between now and the head, in the ring or beyond it, still fires first,
// also after long idle gaps the window has to jump.
func TestRunUntilShortThenScheduleBeforeHead(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	r := HandlerFunc(func(ev Event) { fired = append(fired, ev.At) })
	e.Schedule(10, r, nil)
	e.Schedule(5*ringSize, r, nil)
	e.Schedule(500*ringSize, r, nil)
	if _, err := e.RunUntil(ringSize + 5); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	e.Schedule(2*ringSize, r, nil) // beyond the window, before the head
	e.Schedule(ringSize+6, r, nil) // inside the window
	e.Schedule(ringSize+5, r, nil) // now
	if _, err := e.RunUntil(100 * ringSize); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	e.Schedule(100*ringSize+1, r, nil)
	e.Schedule(300*ringSize, r, nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Cycle{10, ringSize + 5, ringSize + 6, 2 * ringSize, 5 * ringSize,
		100*ringSize + 1, 300 * ringSize, 500 * ringSize}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCancelledTimersDoNotMoveWindow drains a queue whose last events are
// cancelled timers, in the ring and in the overflow heap. Retiring them
// must not move the window past now, or later events scheduled between
// now and those dead cycles would fire out of order.
func TestCancelledTimersDoNotMoveWindow(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	r := HandlerFunc(func(ev Event) { fired = append(fired, ev.At) })
	e.Schedule(2, r, nil)
	e.ScheduleTimer(10, r, nil).Cancel()
	e.ScheduleTimer(3*ringSize, r, nil).Cancel()
	if end, err := e.Run(); err != nil || end != 2 {
		t.Fatalf("Run = %d, %v; want 2, nil", end, err)
	}
	for _, at := range []Cycle{5, 12, 3*ringSize + 1} {
		e.Schedule(at, r, nil)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Cycle{2, 5, 12, 3*ringSize + 1}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// finalProbe is large enough to bypass the tiny allocator, whose shared
// blocks would delay its finalizer indefinitely.
type finalProbe struct{ buf [32]byte }

func (*finalProbe) Handle(Event) {}

// TestDrainedEngineRetainsNoBodies checks that the queue's body slab pins
// nothing once drained: the payloads and handler of fired and cancelled
// events are collectable while the engine itself is still reachable. A
// released engine that still held events must pin nothing either, and
// neither may the slabs it hands back to its Storage: those outlive the
// engine.
func TestDrainedEngineRetainsNoBodies(t *testing.T) {
	for _, release := range []bool{false, true} {
		name := "drained"
		if release {
			name = "released"
		}
		t.Run(name, func(t *testing.T) {
			st := new(Storage)
			e := st.NewEngine()
			var finalized atomic.Int32
			func() {
				fin := func(*finalProbe) { finalized.Add(1) }
				plain, timed, h := &finalProbe{}, &finalProbe{}, &finalProbe{}
				farPlain, farTimed := &finalProbe{}, &finalProbe{}
				for _, p := range []*finalProbe{plain, timed, h, farPlain, farTimed} {
					runtime.SetFinalizer(p, fin)
				}
				e.Schedule(5, h, plain)
				e.ScheduleTimer(9, HandlerFunc(func(Event) {}), timed).Cancel()
				// Far events go through the overflow heap: one migrates
				// into the ring and fires, one is cancelled and dropped
				// on migration. Released before running, every event is
				// still queued, in the ring or the heap.
				e.Schedule(3*ringSize, h, farPlain)
				e.ScheduleTimer(3*ringSize+1, HandlerFunc(func(Event) {}), farTimed).Cancel()
			}()
			if release {
				e.Release()
				if cap(st.bodies) == 0 {
					t.Fatal("released engine handed back no body slab")
				}
				for i, b := range st.bodies[:cap(st.bodies)] {
					if b != (body{}) {
						t.Fatalf("recycled body %d not zeroed", i)
					}
				}
			} else if _, err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i := 0; i < 50 && finalized.Load() < 5; i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			if got := finalized.Load(); got != 5 {
				t.Fatalf("%d of 5 probes collected; the engine or its slabs still pin the rest", got)
			}
			runtime.KeepAlive(e)
			runtime.KeepAlive(st)
		})
	}
}

// TestReleasedEnginePanics checks that a released engine fails loudly:
// scheduling, running and touching a timer armed before the release all
// panic, since its slabs may already belong to another engine.
func TestReleasedEnginePanics(t *testing.T) {
	e := NewEngine()
	h := HandlerFunc(func(Event) {})
	tm := e.ScheduleTimer(10, h, nil)
	e.Schedule(5, h, nil)
	e.Release()
	e.Release() // a second release is a no-op
	for name, f := range map[string]func(){
		"Schedule":      func() { e.Schedule(20, h, nil) },
		"ScheduleAfter": func() { e.ScheduleAfter(1, h, nil) },
		"ScheduleTimer": func() { e.ScheduleTimer(20, h, nil) },
		"Cancel":        func() { tm.Cancel() },
		"Active":        func() { tm.Active() },
		"Run":           func() { _, _ = e.Run() },
		"RunUntil":      func() { _, _ = e.RunUntil(100) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a released engine did not panic", name)
				}
			}()
			f()
		})
	}
	if e.Now() != 0 || e.Processed() != 0 {
		t.Fatalf("released engine reports now %d, processed %d", e.Now(), e.Processed())
	}
}

// TestRecycledSlabsKeepOrder runs one random schedule on engines built
// on the Storage of engines released in various states (drained, holding
// near and far events, holding live and cancelled timers), so the ring
// comes back with stale buckets and the slabs with stale free lists and
// capacities. Every run must fire the events in the order a fresh engine
// does.
func TestRecycledSlabsKeepOrder(t *testing.T) {
	order := func(e *Engine) []int {
		rng := rand.New(rand.NewSource(5))
		var got []int
		var timers []Timer
		for i := 0; i < 2000; i++ {
			id := i
			h := HandlerFunc(func(Event) { got = append(got, id) })
			at := Cycle(rng.Intn(3 * ringSize))
			if rng.Intn(3) == 0 {
				timers = append(timers, e.ScheduleTimer(at, h, nil))
			} else {
				e.Schedule(at, h, nil)
			}
			if len(timers) > 0 && rng.Intn(4) == 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	fresh := order(NewEngine())
	st := new(Storage)
	for round := 0; round < 4; round++ {
		// Leave an engine in a different state each round, release it,
		// then build the next on its storage.
		old := st.NewEngine()
		rng := rand.New(rand.NewSource(int64(round)))
		for i := 0; i < 500*(round+1); i++ {
			at := Cycle(rng.Intn(4 * ringSize))
			if i%2 == 0 {
				old.ScheduleTimer(at, HandlerFunc(func(Event) {}), nil).Cancel()
			} else {
				old.Schedule(at, HandlerFunc(func(Event) {}), nil)
			}
		}
		if round%2 == 1 {
			if _, err := old.RunUntil(Cycle(ringSize)); err != nil {
				t.Fatal(err)
			}
		}
		old.Release()
		e := st.NewEngine()
		if got := order(e); fmt.Sprint(got) != fmt.Sprint(fresh) {
			t.Fatalf("round %d: an engine built after a release fired events in a different order", round)
		}
		e.Release()
	}
}
