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
	got, env, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if env["goos"] != "linux" {
		t.Errorf("env %v, want goos linux", env)
	}
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
		{"equal", BenchLine{OpsPerSec: 100, AllocsPerOp: 100}, BenchLine{OpsPerSec: 100, AllocsPerOp: 100}, false},
		{"ops within tolerance", BenchLine{OpsPerSec: 100}, BenchLine{OpsPerSec: 81}, false},
		{"ops drop", BenchLine{OpsPerSec: 100}, BenchLine{OpsPerSec: 79}, true},
		{"allocs within tolerance", BenchLine{AllocsPerOp: 100}, BenchLine{AllocsPerOp: 110}, false},
		{"allocs rise", BenchLine{AllocsPerOp: 100}, BenchLine{AllocsPerOp: 111}, true},
		{"zero allocs kept", BenchLine{NsPerOp: 40}, BenchLine{NsPerOp: 400}, false},
		{"zero allocs broken", BenchLine{NsPerOp: 40}, BenchLine{NsPerOp: 40, AllocsPerOp: 1}, true},
	}
	for _, tc := range cases {
		if got := regressed(tc.want, tc.have, 0.20); got != tc.fail {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.fail)
		}
	}
}
