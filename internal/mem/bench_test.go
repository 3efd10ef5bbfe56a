package mem

import (
	"math/rand"
	"testing"
)

// BenchmarkCacheAccess times one lookup in the HBM L2 geometry (2 MiB,
// 16-way, 64 B blocks) on a seeded stream that mixes a hot region with
// misses spread over four times the capacity.
func BenchmarkCacheAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		if rng.Intn(2) == 0 {
			addrs[i] = uint64(rng.Intn(256 << 10))
		} else {
			addrs[i] = uint64(rng.Intn(8<<20)) &^ 63
		}
	}
	c := NewCache(2<<20, 16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)])
	}
}

// memSink keeps the benchmarked constructor's result live.
var memSink *Memory

// BenchmarkNewHBM times building a GPU's home-node memory path, which
// every simulated node pays once per cell.
func BenchmarkNewHBM(b *testing.B) {
	var st Storage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		memSink = st.HBM(64)
	}
}
