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
	benchSchedulePop(b, 1024, func(rng *rand.Rand) Cycle { return Cycle(1 + rng.Intn(2048)) })
}

// BenchmarkSchedulePopDeep is BenchmarkSchedulePop at the queue depth and
// delay mix of a 16-GPU secure cell (about 16k events; a third of delays
// under 128 cycles, 43% 128-511, 21% 512-2,047), where 3% of delays are
// 16k-32k-cycle timers like the secure channel's ACK timers.
func BenchmarkSchedulePopDeep(b *testing.B) {
	benchSchedulePop(b, 16384, func(rng *rand.Rand) Cycle {
		switch p := rng.Intn(100); {
		case p < 3:
			return Cycle(farDelay + rng.Intn(farDelay))
		case p < 24:
			return Cycle(512 + rng.Intn(1536))
		case p < 67:
			return Cycle(128 + rng.Intn(384))
		default:
			return Cycle(1 + rng.Intn(127))
		}
	})
}

// farDelay is where the deep benchmark's far timers start.
const farDelay = 16384

func benchSchedulePop(b *testing.B, depth int, delay func(*rand.Rand) Cycle) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Cycle, 4096)
	for i := range delays {
		delays[i] = delay(rng)
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
		switch k := fired & 7; {
		case k == 7:
			e.ScheduleTimerAfter(d, h, payload).Cancel()
			e.ScheduleAfter(d, h, payload)
		case k&1 == 1 || d >= farDelay:
			e.ScheduleTimerAfter(d, h, payload)
		default:
			e.ScheduleAfter(d, h, payload)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(delays[i&(len(delays)-1)], h, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerArmCancel times arming a timer and cancelling it before it
// fires, including the lazy reclamation of the dead event. Timers
// alternate between the secure channel's two kinds: a 200-cycle batch
// flush timer and a 50,000-cycle retransmit timer. One plain event per 64
// timers keeps the clock moving, as live traffic does in a simulation.
func BenchmarkTimerArmCancel(b *testing.B) {
	e := NewEngine()
	h := HandlerFunc(func(Event) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Cycle(200)
		if i&1 == 1 {
			d = 50_000
		}
		e.ScheduleTimerAfter(d, h, nil).Cancel()
		if i&63 == 63 {
			e.ScheduleAfter(64, h, nil)
			if _, err := e.RunUntil(e.Now() + 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}
