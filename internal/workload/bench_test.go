package workload

import "testing"

// tracesSink keeps the benchmarked trace sets live.
var tracesSink [][]Op

// BenchmarkTraces times Traces for the largest trace set of a secbench
// pass at scale 0.01 (mm, 16 GPUs): cold builds it from the generators
// with the cache emptied before every call, warm serves it from the cache.
func BenchmarkTraces(b *testing.B) {
	spec, err := ByAbbr("mm")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resetTraceCache()
			tracesSink = Traces(spec, 16, 0.01, 1)
		}
	})
	b.Run("warm", func(b *testing.B) {
		resetTraceCache()
		Traces(spec, 16, 0.01, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tracesSink = Traces(spec, 16, 0.01, 1)
		}
	})
}
