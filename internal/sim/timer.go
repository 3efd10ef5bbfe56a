package sim

// Timer is a handle to a cancellable scheduled event. The zero value is an
// inert handle: Cancel and Active return false. Handles are small values —
// copy and overwrite them freely; re-arming a component's timer is just
// assigning it a fresh handle from ScheduleTimer.
//
// Cancellation is lazy: the cancelled event stays in the queue and is
// discarded when it reaches the front, so Cancel is O(1) and never
// perturbs the (cycle, sequence) order of the surviving events. This is
// what lets the secure channel's ACK/batch timers — which are almost
// always cancelled by the ACK arriving first — stop churning the queue
// with epoch-revalidation no-op events.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// ScheduleTimer enqueues an event like Schedule and returns a handle that
// can cancel it before it fires. The same past-scheduling and nil-handler
// panics apply.
func (e *Engine) ScheduleTimer(at Cycle, h Handler, payload any) Timer {
	e.mustLive()
	if at < e.now {
		panic("sim: schedule timer in the past")
	}
	if h == nil {
		panic("sim: schedule timer with nil handler")
	}
	var slot int32
	if n := len(e.timerFree); n > 0 {
		slot = e.timerFree[n-1]
		e.timerFree = e.timerFree[:n-1]
	} else {
		slot = int32(len(e.timerGen))
		e.timerGen = append(e.timerGen, 0)
	}
	gen := e.timerGen[slot]
	e.push(at, h, payload, slot, gen)
	return Timer{e: e, slot: slot, gen: gen}
}

// ScheduleTimerAfter enqueues a cancellable event delay cycles from now.
func (e *Engine) ScheduleTimerAfter(delay Cycle, h Handler, payload any) Timer {
	return e.ScheduleTimer(e.now+delay, h, payload)
}

// Cancel prevents the timer's event from firing. It reports whether the
// event was actually cancelled: false means the timer already fired, was
// already cancelled, or is the zero handle. Cancelling is O(1); the dead
// event is reclaimed when it surfaces at the queue head. After a
// successful Cancel the event's payload is never read again, so a pooled
// payload may be reused immediately. Cancelling a timer of a released
// engine panics.
func (t Timer) Cancel() bool {
	if t.e == nil {
		return false
	}
	t.e.mustLive()
	if t.e.timerGen[t.slot] != t.gen {
		return false
	}
	t.e.timerGen[t.slot]++
	t.e.dead++
	return true
}

// Active reports whether the timer's event is still pending: not yet
// fired and not cancelled.
func (t Timer) Active() bool {
	if t.e == nil {
		return false
	}
	t.e.mustLive()
	return t.e.timerGen[t.slot] == t.gen
}
