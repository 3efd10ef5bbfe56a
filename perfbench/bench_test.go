package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.TailP != 90 || s.Median != 50.5 || math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		// Overlapping children count once; the part of a child outside
		// its parent does not count.
		{ID: 2, Parent: 1, Name: "cell", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "cell", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "cell", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent only.
		{ID: 5, Parent: 2, Name: "machine.New", Start: 12 * ms, End: 18 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 14 * ms, 3: 30 * ms, 4: 30 * ms, 5: 6 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	totals := spanTotals(spans)
	if len(totals) != 3 || totals[1].Name != "cell" || totals[1].Calls != 3 || totals[1].Self != 74*ms {
		t.Errorf("spanTotals = %+v", totals)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", tr.begin("y", 0), func(int64) { ran = true })
	if !ran || tr.closed() != nil {
		t.Fatal("nil tracer must run the call and record nothing")
	}
	tr = newTracer()
	tr.setPass(3)
	tr.do("outer", 0, func(id int64) { tr.do("inner", id, func(int64) {}) })
	got := tr.closed()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Pass != 3 || got[1].Name != "inner" {
		t.Fatalf("spans = %+v", got)
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"secmgpu/internal/sim.(*Engine).Run", "secmgpu/internal/machine.(*System).RunContext"}, "sim"},
		// Standard-library work is charged to the module that called it.
		{[]string{"crypto/internal/fips140/aes.encryptBlock", "crypto/cipher.Block.Encrypt",
			"secmgpu/internal/crypto.(*PadGenerator).Generate", "secmgpu/internal/secure.(*Endpoint).seal"}, "crypto"},
		{[]string{"runtime.mapaccess2", "secmgpu/internal/interconnect.(*Fabric).route"}, "interconnect"},
		// Allocation anywhere on the stack is GC work.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "secmgpu/internal/mem.NewCache"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "secmgpu/internal/store.(*Store).Put"}, "net"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "net"},
		{[]string{"secmgpu/internal/tlb.(*TLB).Lookup"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"main.(*figPass).simulate"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var keep [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 4096))
	}
}

// TestDecodeProfile decodes a real runtime/pprof profile: a heap profile
// recording every allocation, so the sample set is deterministic.
func TestDecodeProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, st := range stacks {
		if len(st) > 0 && weights[i] > 0 && strings.Contains(strings.Join(st, " "), ".allocateForProfile") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample attributes an allocation to allocateForProfile among %d stacks", len(stacks))
	}
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil || n == 0 {
		t.Fatalf("cpuShares: n=%d err=%v", n, err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 || len(shares) != len(cpuModules) {
		t.Errorf("shares sum to %v over %d modules", total, len(shares))
	}
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestRPCOp(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/lease", "lease"},
		{"POST", "/v1/lease/l-12/complete", "complete"},
		{"POST", "/v1/lease/l-12/renew", "renew"},
		{"POST", "/v1/campaigns", "submit"},
		{"GET", "/v1/campaigns", "other"},
		{"GET", "/v1/campaigns/c-3", "status"},
		{"GET", "/v1/campaigns/c-3/tables", "tables"},
	} {
		if got := rpcOp(c.method, c.path); got != c.want {
			t.Errorf("rpcOp(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	h := histogram{Bounds: []uint64{1, 5, 10}, Counts: []uint64{2, 6, 1, 1}}
	for _, c := range []struct{ q, want float64 }{{0.1, 1}, {0.5, 5}, {0.9, 10}, {0.99, 10}} {
		if got := bucketQuantile(h, c.q); got != c.want {
			t.Errorf("bucketQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(histogram{}, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark
// contract reads, in step with the metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i] != (metric{d.Name, d.Unit, d.Better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}

// TestPaperValuesMatchExperimentsMD checks the reference values behind
// paper_gap_pp against the headline summary in EXPERIMENTS.md.
func TestPaperValuesMatchExperimentsMD(t *testing.T) {
	b, err := os.ReadFile("../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range paperAvg {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%.3f", v)
		}
		if row := strings.Join(parts, "/"); !strings.Contains(string(b), "| "+row+" |") {
			t.Errorf("%s: %q not found in EXPERIMENTS.md", name, row)
		}
	}
}
