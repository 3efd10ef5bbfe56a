package secmgpu

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (see DESIGN.md section 5 for the index). Each benchmark runs
// the corresponding experiment and reports the headline values as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Workload sizing is controlled by the
// SECMGPU_SCALE environment variable (default 0.10; the full evaluation
// size is 1.0).

import (
	"context"
	"os"
	"strconv"
	"testing"

	"secmgpu/internal/sweep"
)

func benchScale() float64 {
	if v := os.Getenv("SECMGPU_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.10
}

func benchParams() ExperimentParams {
	return DefaultExperimentParams(benchScale())
}

// reportColumns attaches each column's mean-row value as a benchmark
// metric, named after the experiment column itself (normalized for
// benchstat: lowercase, with runs of non-alphanumerics collapsed to "_")
// so the -bench output reads as the paper's tables do.
func reportColumns(b *testing.B, t *ExperimentTable) {
	b.Helper()
	mean := t.MeanRow()
	for i, col := range t.Columns {
		b.ReportMetric(mean.Values[i], metricName(col)+"_avg")
	}
}

// metricName normalizes an experiment column label into a benchstat-safe
// metric unit.
func metricName(col string) string {
	out := make([]byte, 0, len(col))
	pendingSep := false
	for i := 0; i < len(col); i++ {
		c := col[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			if pendingSep && len(out) > 0 {
				out = append(out, '_')
			}
			pendingSep = false
			out = append(out, c)
		default:
			pendingSep = true
		}
	}
	if len(out) == 0 {
		return "col"
	}
	return string(out)
}

func runExperimentBench(b *testing.B, name string, p ExperimentParams) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh engine per iteration keeps the benchmark measuring
		// simulation, not the sweep engine's result cache.
		p.Engine = sweep.New(0)
		t, err := RunExperimentContext(context.Background(), name, p)
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if i == b.N-1 {
			reportColumns(b, t)
		}
	}
}

// BenchmarkTable1_OTPStorage regenerates Table I (analytic OTP storage).
func BenchmarkTable1_OTPStorage(b *testing.B) {
	runExperimentBench(b, "table1", benchParams())
}

// BenchmarkTable4_RPKIClasses regenerates Table IV's workload registry
// with the modelled request densities.
func BenchmarkTable4_RPKIClasses(b *testing.B) {
	runExperimentBench(b, "table4", benchParams())
}

// BenchmarkFig8_PrivateOTPSweep regenerates Figure 8: Private slowdown as
// the OTP allocation grows 1x -> 16x.
func BenchmarkFig8_PrivateOTPSweep(b *testing.B) {
	runExperimentBench(b, "fig8", benchParams())
}

// BenchmarkFig9_PriorSchemes regenerates Figure 9: Private / Shared /
// Cached at OTP 4x.
func BenchmarkFig9_PriorSchemes(b *testing.B) {
	runExperimentBench(b, "fig9", benchParams())
}

// BenchmarkFig10_OTPLatencyDist regenerates Figure 10: the OTP
// hit/partial/miss distribution of the prior schemes.
func BenchmarkFig10_OTPLatencyDist(b *testing.B) {
	runExperimentBench(b, "fig10", benchParams())
}

// BenchmarkFig11_OverheadBreakdown regenerates Figure 11: secure
// communication latency alone, then with metadata bandwidth.
func BenchmarkFig11_OverheadBreakdown(b *testing.B) {
	runExperimentBench(b, "fig11", benchParams())
}

// BenchmarkFig12_TrafficBreakdown regenerates Figure 12: traffic of the
// secure system relative to the unsecure baseline.
func BenchmarkFig12_TrafficBreakdown(b *testing.B) {
	runExperimentBench(b, "fig12", benchParams())
}

// BenchmarkFig13_SendRecvPhases regenerates Figure 13: the send/receive
// mix over matrix multiplication's execution.
func BenchmarkFig13_SendRecvPhases(b *testing.B) {
	runExperimentBench(b, "fig13", benchParams())
}

// BenchmarkFig14_DestinationPhases regenerates Figure 14: GPU 1's request
// destinations over time.
func BenchmarkFig14_DestinationPhases(b *testing.B) {
	runExperimentBench(b, "fig14", benchParams())
}

// BenchmarkFig15_Burstiness16 regenerates Figure 15: cycles until 16 data
// blocks gather per processor pair.
func BenchmarkFig15_Burstiness16(b *testing.B) {
	runExperimentBench(b, "fig15", benchParams())
}

// BenchmarkFig16_Burstiness32 regenerates Figure 16: cycles until 32 data
// blocks gather per processor pair.
func BenchmarkFig16_Burstiness32(b *testing.B) {
	runExperimentBench(b, "fig16", benchParams())
}

// BenchmarkFig21_MainResult4GPU regenerates Figure 21, the headline 4-GPU
// comparison of Private 4x/16x, Cached, Dynamic, and Dynamic+Batching.
func BenchmarkFig21_MainResult4GPU(b *testing.B) {
	runExperimentBench(b, "fig21", benchParams())
}

// BenchmarkFig22_OTPDistOurs regenerates Figure 22: the OTP distribution
// including the proposed scheme.
func BenchmarkFig22_OTPDistOurs(b *testing.B) {
	runExperimentBench(b, "fig22", benchParams())
}

// BenchmarkFig23_TrafficOurs regenerates Figure 23: communication traffic
// of Private, Cached, and Ours.
func BenchmarkFig23_TrafficOurs(b *testing.B) {
	runExperimentBench(b, "fig23", benchParams())
}

// BenchmarkFig24_8GPU regenerates Figure 24: the 8-GPU comparison.
func BenchmarkFig24_8GPU(b *testing.B) {
	runExperimentBench(b, "fig24", benchParams())
}

// BenchmarkFig25_16GPU regenerates Figure 25: the 16-GPU comparison.
func BenchmarkFig25_16GPU(b *testing.B) {
	p := benchParams()
	// 16 GPUs at the default scale is the heaviest experiment; halve the
	// per-GPU ops so the suite stays tractable on a laptop.
	p.Scale = p.Scale / 2
	runExperimentBench(b, "fig25", p)
}

// BenchmarkFig26_AESLatency regenerates Figure 26: sensitivity to the
// AES-GCM latency (10-40 cycles).
func BenchmarkFig26_AESLatency(b *testing.B) {
	runExperimentBench(b, "fig26", benchParams())
}

// BenchmarkAblationAlphaBeta sweeps the EWMA forgetting rates of the
// Dynamic allocator (beyond the paper).
func BenchmarkAblationAlphaBeta(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "pr"}
	runExperimentBench(b, "ablation-alpha-beta", p)
}

// BenchmarkAblationBatchSize sweeps the metadata batch size n.
func BenchmarkAblationBatchSize(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "pr", "aes"}
	runExperimentBench(b, "ablation-batch-size", p)
}

// BenchmarkAblationTimeout sweeps the partial-batch flush timeout.
func BenchmarkAblationTimeout(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "aes"}
	runExperimentBench(b, "ablation-timeout", p)
}

// BenchmarkAblationDecompose isolates Dynamic-only and Batching-only
// contributions.
func BenchmarkAblationDecompose(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "pr", "aes"}
	runExperimentBench(b, "ablation-decompose", p)
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// remote operations per wall-clock second on one secure 4-GPU run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := WorkloadByAbbr("mm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(4)
	cfg.Scale = benchScale()
	cfg.Secure = true
	cfg.Scheme = SchemeDynamic
	cfg.Batching = true
	b.ReportAllocs()
	var ops uint64
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), cfg, spec, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkSimulatorThroughput16GPU measures simulated remote operations
// per wall-clock second on one secure 16-GPU run, the largest topology the
// evaluation simulates.
func BenchmarkSimulatorThroughput16GPU(b *testing.B) {
	spec, err := WorkloadByAbbr("mm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(16)
	// 16 GPUs is the heaviest topology; halve the per-GPU ops as the
	// Figure 25 benchmark does so the suite stays tractable.
	cfg.Scale = benchScale() / 2
	cfg.Secure = true
	cfg.Scheme = SchemeDynamic
	cfg.Batching = true
	b.ReportAllocs()
	var ops uint64
	for i := 0; i < b.N; i++ {
		res, err := RunContext(context.Background(), cfg, spec, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		ops += res.Ops
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkAblationOracle bounds the schemes against an idealized
// always-ready pad table.
func BenchmarkAblationOracle(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "mt"}
	runExperimentBench(b, "ablation-oracle", p)
}

// BenchmarkAblationTLB enables the TLB/IOMMU hierarchy.
func BenchmarkAblationTLB(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "mt"}
	runExperimentBench(b, "ablation-tlb", p)
}

// BenchmarkAblationTopology compares p2p and switch fabrics.
func BenchmarkAblationTopology(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "mt"}
	runExperimentBench(b, "ablation-topology", p)
}

// BenchmarkAblationCUFrontEnd compares flat and CU-sharded front-ends.
func BenchmarkAblationCUFrontEnd(b *testing.B) {
	p := benchParams()
	p.Workloads = []string{"mm", "syr2k", "mt"}
	runExperimentBench(b, "ablation-cu-frontend", p)
}
