package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"secmgpu/internal/config"
)

func TestRegistryMatchesTableIV(t *testing.T) {
	specs := Registry()
	if len(specs) != 17 {
		t.Fatalf("registry has %d workloads, want 17 (Table IV)", len(specs))
	}
	wantClass := map[string]Class{
		"mt": HighRPKI, "relu": HighRPKI, "pr": HighRPKI, "syr2k": HighRPKI, "spmv": HighRPKI,
		"sc": MediumRPKI, "mm": MediumRPKI, "atax": MediumRPKI, "bicg": MediumRPKI,
		"ges": MediumRPKI, "mvt": MediumRPKI, "st": MediumRPKI, "fft": MediumRPKI, "km": MediumRPKI,
		"floyd": LowRPKI, "aes": LowRPKI, "fir": LowRPKI,
	}
	if len(wantClass) != 17 {
		t.Fatal("test table is wrong")
	}
	for _, s := range specs {
		want, ok := wantClass[s.Abbr]
		if !ok {
			t.Errorf("unexpected workload %q", s.Abbr)
			continue
		}
		if s.Class != want {
			t.Errorf("%s class=%v, want %v", s.Abbr, s.Class, want)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Abbr, err)
		}
		if s.Suite == "" {
			t.Errorf("%s missing suite", s.Abbr)
		}
	}
}

func TestByAbbr(t *testing.T) {
	s, err := ByAbbr("mm")
	if err != nil {
		t.Fatalf("ByAbbr(mm): %v", err)
	}
	if s.Name != "matrixmultiplication" {
		t.Errorf("mm resolves to %q", s.Name)
	}
	if _, err := ByAbbr("nope"); err == nil {
		t.Error("unknown abbreviation did not error")
	}
}

func TestByClassPartitions(t *testing.T) {
	total := 0
	for _, c := range []Class{HighRPKI, MediumRPKI, LowRPKI} {
		total += len(ByClass(c))
	}
	if total != 17 {
		t.Errorf("classes partition %d workloads, want 17", total)
	}
	if got := len(ByClass(HighRPKI)); got != 5 {
		t.Errorf("high RPKI count=%d, want 5", got)
	}
}

func TestTraceDeterminism(t *testing.T) {
	s, _ := ByAbbr("mm")
	a := s.Trace(1, 4, 0.1, 42)
	b := s.Trace(1, 4, 0.1, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different traces")
	}
	c := s.Trace(1, 4, 0.1, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical traces")
	}
	d := s.Trace(2, 4, 0.1, 42)
	if reflect.DeepEqual(a, d) {
		t.Error("different GPUs produced identical traces")
	}
}

func TestTraceDestinationsValid(t *testing.T) {
	for _, s := range Registry() {
		ops := s.Trace(2, 4, 0.05, 1)
		if len(ops) == 0 {
			t.Fatalf("%s: empty trace", s.Abbr)
		}
		for i, op := range ops {
			if op.Home == 2 {
				t.Fatalf("%s op %d targets the requester itself", s.Abbr, i)
			}
			if op.Home > 4 {
				t.Fatalf("%s op %d home=%d outside 0..4", s.Abbr, i, op.Home)
			}
			if op.Block > 63 {
				t.Fatalf("%s op %d block=%d", s.Abbr, i, op.Block)
			}
			if int(op.Page) >= s.PagePool {
				t.Fatalf("%s op %d page=%d beyond pool %d", s.Abbr, i, op.Page, s.PagePool)
			}
		}
	}
}

func TestTraceScale(t *testing.T) {
	s, _ := ByAbbr("syr2k")
	full := s.Trace(1, 4, 1.0, 1)
	tenth := s.Trace(1, 4, 0.1, 1)
	if len(full) < 9*len(tenth) {
		t.Errorf("scale 1.0 gave %d ops vs %d at 0.1", len(full), len(tenth))
	}
	if got := len(full); got < s.OpsPerGPU {
		t.Errorf("full trace has %d ops, want >= %d", got, s.OpsPerGPU)
	}
}

func TestRPKIClassSetsIntensity(t *testing.T) {
	// High-RPKI traces must be denser in time than low-RPKI traces:
	// compare total gap per op.
	density := func(abbr string) float64 {
		s, err := ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		ops := s.Trace(1, 4, 0.2, 1)
		var gaps uint64
		for _, op := range ops {
			gaps += uint64(op.Gap)
		}
		return float64(gaps) / float64(len(ops))
	}
	high := density("syr2k")
	low := density("fir")
	if high*5 > low {
		t.Errorf("gap/op: high=%.1f low=%.1f; low-RPKI should be much sparser", high, low)
	}
}

func TestBurstsTargetOneDestination(t *testing.T) {
	// Within a burst (gap 0 or tiny), consecutive ops should share a
	// destination; that is the property metadata batching exploits.
	s, _ := ByAbbr("mt")
	ops := s.Trace(1, 4, 0.1, 1)
	var sameDest, burstPairs int
	for i := 1; i < len(ops); i++ {
		if ops[i].Gap <= uint32(s.IntraGapMax) {
			burstPairs++
			if ops[i].Home == ops[i-1].Home {
				sameDest++
			}
		}
	}
	if burstPairs == 0 {
		t.Fatal("no bursts detected")
	}
	// Bursts are destination-coherent apart from the ~15% stray accesses
	// interleaved by concurrent wavefronts.
	if frac := float64(sameDest) / float64(burstPairs); frac < 0.70 || frac > 0.95 {
		t.Errorf("burst destination coherence=%.2f, want within [0.70, 0.95]", frac)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good, _ := ByAbbr("mm")
	mutations := map[string]func(*Spec){
		"no name":     func(s *Spec) { s.Name = "" },
		"zero ops":    func(s *Spec) { s.OpsPerGPU = 0 },
		"bad burst":   func(s *Spec) { s.BurstMax = s.BurstMin - 1 },
		"bad gaps":    func(s *Spec) { s.InterGapMax = s.InterGapMin - 1 },
		"write frac":  func(s *Spec) { s.WriteFrac = 1.5 },
		"reuse":       func(s *Spec) { s.PageReuse = -0.1 },
		"zero phases": func(s *Spec) { s.Phases = 0 },
	}
	for name, mutate := range mutations {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad spec", name)
		}
	}
}

// TestTraceBadGPUPanics checks that a trace is refused for the CPU (GPU 0)
// and for a system of more than config.MaxGPUs GPUs, whose homes would not
// fit Op.Home's byte, while one for exactly that many builds.
func TestTraceBadGPUPanics(t *testing.T) {
	s, _ := ByAbbr("mm")
	for name, gpus := range map[string][2]int{
		"gpu 0":                                  {0, 4},
		fmt.Sprintf("%d gpus", config.MaxGPUs+1): {config.MaxGPUs + 1, config.MaxGPUs + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			s.Trace(gpus[0], gpus[1], 0.01, 1)
		}()
	}
	if ops := s.Trace(1, config.MaxGPUs, 0.2, 1); len(ops) == 0 {
		t.Errorf("no trace for %d GPUs", config.MaxGPUs)
	}
}

// Property: traces are valid for any (gpu, numGPUs >= 2, seed).
func TestTraceValidityProperty(t *testing.T) {
	specs := Registry()
	prop := func(gpuRaw, nRaw uint8, seed int64) bool {
		n := int(nRaw%15) + 2
		gpu := int(gpuRaw)%n + 1
		s := specs[int(seed%17+17)%17]
		ops := s.Trace(gpu, n, 0.01, seed)
		for _, op := range ops {
			if int(op.Home) == gpu || int(op.Home) > n || op.Block > 63 {
				return false
			}
		}
		return len(ops) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

func TestTracesMatchesPerGPUTrace(t *testing.T) {
	spec, err := ByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	traces := Traces(spec, 4, 0.05, 7)
	if len(traces) != 4 {
		t.Fatalf("traces for %d GPUs, want 4", len(traces))
	}
	for g := 1; g <= 4; g++ {
		want := spec.Trace(g, 4, 0.05, 7)
		if !reflect.DeepEqual(traces[g-1], want) {
			t.Errorf("Traces()[%d] differs from Spec.Trace(%d, ...)", g-1, g)
		}
	}
}

// TestOpSize pins the in-memory op, which the trace cache budgets by.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 12 {
		t.Errorf("Op is %d bytes, want 12", got)
	}
}

// resetTraceCache empties the process-wide trace cache.
func resetTraceCache() {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	clear(traceCache.sets)
	traceCache.bytes = 0
}

// freshTraces builds a trace set without the cache, from fresh generators.
func freshTraces(spec Spec, numGPUs int, scale float64, seed int64) [][]Op {
	set := make([][]Op, numGPUs)
	for g := 1; g <= numGPUs; g++ {
		set[g-1] = spec.generate(rand.New(rand.NewSource(traceSeed(g, numGPUs, seed))), g, numGPUs, scale)
	}
	return set
}

// TestCachedTracesMatchFresh checks that a set Traces serves from its cache
// equals, GPU for GPU, what fresh generators draw, over several workloads,
// GPU counts and seeds.
func TestCachedTracesMatchFresh(t *testing.T) {
	resetTraceCache()
	for _, abbr := range []string{"mm", "syr2k", "fir"} {
		spec, err := ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		for _, gpus := range []int{4, 8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				want := freshTraces(spec, gpus, 0.02, seed)
				Traces(spec, gpus, 0.02, seed)
				if traceCache.get(traceKey{spec, gpus, 0.02, seed}) == nil {
					t.Fatalf("%s %d GPUs seed %d: set not cached", abbr, gpus, seed)
				}
				if got := Traces(spec, gpus, 0.02, seed); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %d GPUs seed %d: cached set differs from fresh generators' traces", abbr, gpus, seed)
				}
			}
		}
	}
}

// TestTracesAppendLeavesCacheUnchanged checks that a caller appending to a
// returned trace, or replacing one, does not reach the cached set.
func TestTracesAppendLeavesCacheUnchanged(t *testing.T) {
	resetTraceCache()
	spec, _ := ByAbbr("mm")
	want := freshTraces(spec, 4, 0.02, 5)
	got := Traces(spec, 4, 0.02, 5)
	for i, tr := range got {
		if cap(tr) != len(tr) {
			t.Errorf("trace %d has capacity %d beyond its %d ops", i, cap(tr), len(tr))
		}
	}
	got[0] = append(got[0], Op{Gap: 7, Home: 3})
	got[1] = nil
	if again := Traces(spec, 4, 0.02, 5); !reflect.DeepEqual(again, want) {
		t.Error("an append to or a replaced returned trace changed the cached set")
	}
}

// TestTraceCacheBudget checks that the cache never holds more ops than its
// budget while sets come and go, that its count matches what it holds, and
// that a set over budget on its own is not cached.
func TestTraceCacheBudget(t *testing.T) {
	resetTraceCache()
	spec, _ := ByAbbr("syr2k")
	for seed := int64(1); seed <= 40; seed++ {
		Traces(spec, 16, 0.01, seed)
		traceCache.mu.Lock()
		held := 0
		for _, set := range traceCache.sets {
			held += setBytes(set)
		}
		bytes, sets := traceCache.bytes, len(traceCache.sets)
		traceCache.mu.Unlock()
		if held != bytes || bytes > traceCacheBytes || sets == 0 {
			t.Fatalf("after seed %d: %d sets hold %d bytes, counted %d, budget %d", seed, sets, held, bytes, traceCacheBytes)
		}
	}
	if big := Traces(spec, 16, 0.5, 1); setBytes(big) <= traceCacheBytes {
		t.Fatalf("setup: a %d-byte set is not over the %d-byte budget", setBytes(big), traceCacheBytes)
	}
	if traceCache.get(traceKey{spec, 16, 0.5, 1}) != nil {
		t.Error("a set over budget on its own was cached")
	}
}

// TestTracesParallel calls Traces from several goroutines on shared and
// distinct keys, as sweep workers do; every set must equal a fresh one.
func TestTracesParallel(t *testing.T) {
	resetTraceCache()
	spec, _ := ByAbbr("mm")
	const workers, rounds = 4, 5
	want := make([][][]Op, workers+1)
	for k := range want {
		want[k] = freshTraces(spec, 8, 0.01, int64(k))
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds*2)
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Seed 0 is shared by every worker, seed w is this one's.
				for _, k := range []int{0, w} {
					if got := Traces(spec, 8, 0.01, int64(k)); !reflect.DeepEqual(got, want[k]) {
						errs <- fmt.Sprintf("worker %d round %d seed %d: set differs from a fresh one", w, r, k)
					}
					if r%2 == 1 {
						resetTraceCache()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
