package machine

import "testing"

// TestWarmNewAllocs bounds the allocations of building a cell on a warm
// cell store entry, as every sweep cell but a worker's first is built:
// the engine ring and slabs, the fabric's arrays, the endpoints' per-peer
// tables, batchers and MAC stores and the burst counters are recycled, so
// what remains is the per-cell objects (System, nodes, engine, fabric,
// endpoints, caches, tickers) and the OTP managers: 174 allocations at 4
// GPUs and 946 at 16 on go1.24. A build that reallocates the engine ring
// and the per-peer tables, batchers and MAC stores (416 and 3,376) fails
// the bound.
func TestWarmNewAllocs(t *testing.T) {
	for _, tc := range []struct {
		gpus int
		max  float64
	}{
		{4, 200},
		{16, 1100},
	} {
		cfg, traces := oursCell(t, tc.gpus, 0.01)
		build := func() {
			sys, err := New(cfg, traces, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.RunContext(cancelled); err == nil {
				t.Fatal("a cancelled run succeeded")
			}
		}
		build()
		if got := testing.AllocsPerRun(20, build); got > tc.max {
			t.Errorf("%d GPUs: a warm New allocates %.0f times, want at most %.0f", tc.gpus, got, tc.max)
		}
	}
}
