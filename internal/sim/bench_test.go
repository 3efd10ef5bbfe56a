package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkSchedulePop times one pop plus one schedule at a steady queue
// depth of about 1k. Every fired event schedules its replacement; half of
// them are timers, and a quarter of those are cancelled and replaced, so
// lazy deletions cross the queue head too.
func BenchmarkSchedulePop(b *testing.B) {
	const depth = 1024
	rng := rand.New(rand.NewSource(1))
	delays := make([]Cycle, 4096)
	for i := range delays {
		delays[i] = Cycle(1 + rng.Intn(2*depth))
	}
	e := NewEngine()
	payload := &struct{ x int }{}
	var fired int
	var h HandlerFunc
	h = func(Event) {
		fired++
		if fired == b.N {
			e.Stop()
		}
		d := delays[fired&(len(delays)-1)]
		switch fired & 7 {
		case 1, 3, 5:
			e.ScheduleTimerAfter(d, h, payload)
		case 7:
			e.ScheduleTimerAfter(d, h, payload).Cancel()
			e.ScheduleAfter(d, h, payload)
		default:
			e.ScheduleAfter(d, h, payload)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(delays[i], h, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
