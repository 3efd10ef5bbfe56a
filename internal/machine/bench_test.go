package machine

import (
	"context"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/workload"
)

// oursConfig returns the configuration of one secure cell under Ours
// (Dynamic OTP with batching), as the evaluation sweeps build it.
func oursConfig(gpus int) config.Config {
	cfg := config.Default(gpus)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.OTPMultiplier = 4
	cfg.Batching = true
	return cfg
}

// oursCell returns the configuration and mm traces of one Ours cell at
// scale.
func oursCell(tb testing.TB, gpus int, scale float64) (config.Config, [][]workload.Op) {
	tb.Helper()
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := oursConfig(gpus)
	cfg.Scale = scale
	return cfg, workload.Traces(spec, cfg.NumGPUs, cfg.Scale, cfg.Seed)
}

// sysSink keeps the benchmarked constructor's result live.
var sysSink *System

// cancelled is a context cancelled before any run starts: RunContext on
// it returns at once, having released the system into the cell store.
var cancelled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// BenchmarkNew times building one secure system under Ours (Dynamic OTP
// with batching) for the mm workload: nodes, memory paths, fabric and
// secure endpoints. Traces are generated outside the timer. The cold
// subcases never run their systems, so nothing is released and every
// build starts from an empty store entry. The warm ones release each
// system through a pre-cancelled RunContext, so every build after the
// first draws on the storage the previous one left, as a sweep worker's
// do. The warm "faults" and "outages" rows build the resilience
// experiment's 1% fault fabric and the degradation experiment's heavy
// outage fabric, whose link generators copy the seed store's states.
func BenchmarkNew(b *testing.B) {
	for _, tc := range []struct {
		name  string
		gpus  int
		scale float64
	}{
		{"4GPU", 4, 0.1},
		{"16GPU", 16, 0.05},
	} {
		cfg, traces := oursCell(b, tc.gpus, tc.scale)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := New(cfg, traces, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sysSink = sys
			}
		})
		b.Run(tc.name+"-warm", func(b *testing.B) { benchWarmNew(b, cfg, traces) })
	}
	cfg, traces := oursCell(b, 4, 0.1)
	faults := cfg
	faults.Faults = faultyConfig(4, cfg.Seed).Faults
	b.Run("4GPU-faults-warm", func(b *testing.B) { benchWarmNew(b, faults, traces) })
	b.Run("4GPU-outages-warm", func(b *testing.B) { benchWarmNew(b, heavyOutages(cfg, cfg.Seed), traces) })
}

// benchWarmNew times New of one cell whose every build is released
// through a pre-cancelled RunContext.
func benchWarmNew(b *testing.B, cfg config.Config, traces [][]workload.Op) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg, traces, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.RunContext(cancelled); err == nil {
			b.Fatal("a cancelled run succeeded")
		}
	}
}

// BenchmarkCell times one figures-sized cell end to end: New plus
// RunContext of a secure mm cell under Ours at scale 0.01, as a sweep
// worker runs thousands of them. Each run releases its storage into the
// cell store, so from the second op on a cell builds on the previous
// one's. Traces are generated outside the timer.
func BenchmarkCell(b *testing.B) {
	for _, tc := range []struct {
		name string
		gpus int
	}{
		{"4GPU", 4},
		{"16GPU", 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg, traces := oursCell(b, tc.gpus, 0.01)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := New(cfg, traces, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
