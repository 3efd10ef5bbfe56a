package machine

import (
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/workload"
)

// sysSink keeps the benchmarked constructor's result live.
var sysSink *System

// BenchmarkNew times building one secure system under Ours (Dynamic OTP
// with batching) for the mm workload: nodes, memory paths, fabric and
// secure endpoints. Traces are generated outside the timer.
func BenchmarkNew(b *testing.B) {
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		gpus  int
		scale float64
	}{
		{"4GPU", 4, 0.1},
		{"16GPU", 16, 0.05},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := config.Default(tc.gpus)
			cfg.Scale = tc.scale
			cfg.Secure = true
			cfg.Scheme = config.OTPDynamic
			cfg.OTPMultiplier = 4
			cfg.Batching = true
			traces := workload.Traces(spec, cfg.NumGPUs, cfg.Scale, cfg.Seed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := New(cfg, traces, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				sysSink = sys
			}
		})
	}
}
