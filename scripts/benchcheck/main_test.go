package main

import (
	"strings"
	"testing"
)

func TestParseBenchKeepsBestOfRepeats(t *testing.T) {
	out := `goos: linux
pkg: secmgpu/internal/mem
BenchmarkCacheAccess-2   	1000	 50.0 ns/op	  16 B/op	  1 allocs/op
BenchmarkCacheAccess-2   	1000	 40.0 ns/op	   0 B/op	  0 allocs/op
BenchmarkCacheAccess-2   	1000	 45.0 ns/op	  16 B/op	  1 allocs/op
BenchmarkSimulatorThroughput-8	3	 100 ns/op	 500 ops/s	 10 B/op	 7 allocs/op
BenchmarkSimulatorThroughput-8	3	 90 ns/op	 600 ops/s	 12 B/op	 8 allocs/op
`
	runs, env, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if env["goos"] != "linux" || env["gomaxprocs"] != "8" {
		t.Errorf("env %v, want goos linux and gomaxprocs 8", env)
	}
	if n := len(runs["BenchmarkCacheAccess"]); n != 3 {
		t.Errorf("BenchmarkCacheAccess has %d runs, want 3", n)
	}
	got := best(runs)
	if c := got["BenchmarkCacheAccess"]; c != (BenchLine{NsPerOp: 40}) {
		t.Errorf("BenchmarkCacheAccess = %+v, want 40 ns/op and zero allocs and bytes", c)
	}
	want := BenchLine{OpsPerSec: 600, NsPerOp: 90, AllocsPerOp: 7, BytesPerOp: 10}
	if s := got["BenchmarkSimulatorThroughput"]; s != want {
		t.Errorf("BenchmarkSimulatorThroughput = %+v, want %+v", s, want)
	}
}

func TestRegressed(t *testing.T) {
	cases := []struct {
		name       string
		want, have BenchLine
		fail       bool
	}{
		{"equal", BenchLine{AllocsPerOp: 100}, BenchLine{AllocsPerOp: 100}, false},
		{"ops ignored", BenchLine{OpsPerSec: 100}, BenchLine{OpsPerSec: 10}, false},
		{"allocs within tolerance", BenchLine{AllocsPerOp: 100}, BenchLine{AllocsPerOp: 110}, false},
		{"allocs rise", BenchLine{AllocsPerOp: 100}, BenchLine{AllocsPerOp: 111}, true},
		{"zero allocs kept", BenchLine{NsPerOp: 40}, BenchLine{NsPerOp: 400}, false},
		{"zero allocs broken", BenchLine{NsPerOp: 40}, BenchLine{NsPerOp: 40, AllocsPerOp: 1}, true},
	}
	for _, tc := range cases {
		if got := regressed(tc.want, tc.have); got != tc.fail {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}

func TestPairedRatio(t *testing.T) {
	ops := func(xs ...float64) []BenchLine {
		out := make([]BenchLine, len(xs))
		for i, x := range xs {
			out[i] = BenchLine{OpsPerSec: x}
		}
		return out
	}
	// Pair-wise ratios 0.5, 1, 1.1, 1.2, 2: the median ignores the two
	// outlying pairs that a best-of comparison would pick.
	base := ops(200, 100, 100, 50, 100)
	head := ops(100, 100, 110, 60, 200)
	if r, n, err := pairedRatio(base, head); err != nil || n != 5 || r != 1.1 {
		t.Errorf("pairedRatio = %v, %d, %v; want 1.1, 5, nil", r, n, err)
	}
	if r, n, err := pairedRatio(base[:4], head[:4]); err == nil {
		t.Errorf("4 pairs: pairedRatio = %v, %d, nil; want an error", r, n)
	}
	if _, _, err := pairedRatio(base, head[:4]); err == nil {
		t.Error("unequal run counts accepted")
	}
	if _, n, err := pairedRatio(nil, head); err != nil || n != 0 {
		t.Errorf("no base runs: n=%d err=%v, want 0, nil", n, err)
	}
}
