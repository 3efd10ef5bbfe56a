// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints its metrics, ending with a one-line
// JSON result:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) times every call the benchmark makes into a module, profiles
// the CPU, and reports the per-layer metrics. Each run also checks the
// program's outputs and exits 1 when a check fails. Run records, spans and
// profiles are written under .perfbench/ in the working directory, which
// must be the repository root. METRICS.md describes the workloads and
// metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *run) error{
	"figures":    runFigures,
	"cell16":     runCell16,
	"functional": runFunctional,
	"campaign":   runCampaign,
}

// passOut holds one pass's metrics by name.
type passOut map[string]float64

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	tmp      string // scratch directory inside the checkout

	tr *tracer // nil on untraced passes

	untraced []passOut
	tracedP  []passOut

	// extra holds values measured once per run rather than per pass.
	extra passOut
	// setupExtra are set-up times of set-up-only cycles, counted with the
	// passes' setup_s samples.
	setupExtra []float64

	attempted, failed int
	checkFails        []string
	costs             []costRow
}

// check records one output check; a failed check fails the run.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.checkFails = append(r.checkFails, name+": "+fmt.Sprintf(format, args...))
	}
}

// loop runs pass until the time budget is spent. Another pass starts only
// if the elapsed time plus the median pass so far fits the budget, with at
// least minPasses passes. In a traced run the first pass is untraced (the
// baseline for the tracing overhead) and the rest are traced, so at least
// two passes run.
func (r *run) loop(minPasses int, pass func(i int, tr *tracer) (passOut, error)) error {
	if r.traced {
		minPasses = max(minPasses, 2)
	}
	start := time.Now()
	var durs []float64
	var prof bytes.Buffer
	profiling := false
	var tr *tracer
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= minPasses && el+time.Duration(median(durs)*float64(time.Second)) > r.budget {
			break
		}
		traced := r.traced && i > 0
		if traced && tr == nil {
			tr = newTracer()
			r.tr = tr
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
			profiling = true
		}
		var passTr *tracer
		if traced {
			passTr = tr
			tr.setPass(i)
		}
		// Every pass starts from a collected heap, so no collection of an
		// earlier pass's garbage runs inside it. The memory stays mapped:
		// returning it would make each pass's set-up pay page faults again.
		runtime.GC()
		stopMem := sampleMemory()
		t0 := time.Now()
		out, err := pass(i, passTr)
		peakMiB := stopMem()
		if err == nil {
			out["peak_rss_mb"] = peakMiB
		}
		if err != nil {
			if profiling {
				pprof.StopCPUProfile()
			}
			return err
		}
		durs = append(durs, time.Since(t0).Seconds())
		if traced {
			r.tracedP = append(r.tracedP, out)
		} else {
			r.untraced = append(r.untraced, out)
		}
	}
	if profiling {
		pprof.StopCPUProfile()
		r.extra["trace.overhead_frac"] = ratio(median(r.values("wall_s", true)), median(r.values("wall_s", false))) - 1
		shares, samples, err := cpuShares(prof.Bytes())
		if err != nil {
			return err
		}
		for m, v := range shares {
			r.extra["cpu."+m+"_frac"] = v
		}
		r.extra["cpu.samples"] = float64(samples)
		if err := os.WriteFile(r.outPath("cpu.pprof"), prof.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// values returns metric name's per-pass values from the untraced or the
// traced passes.
func (r *run) values(name string, traced bool) []float64 {
	passes := r.untraced
	if traced {
		passes = r.tracedP
	}
	var xs []float64
	if name == "setup_s" && !traced {
		xs = append(xs, r.setupExtra...)
	}
	for _, p := range passes {
		if v, ok := p[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// value is the median of a metric over the run's own kind of passes,
// falling back to a once-per-run value.
func (r *run) value(name string) (float64, bool) {
	if xs := r.values(name, r.traced); len(xs) > 0 {
		return median(xs), true
	}
	v, ok := r.extra[name]
	return v, ok
}

// outPath names a per-run output file under .perfbench/.
func (r *run) outPath(kind string) string {
	return filepath.Join(".perfbench", fmt.Sprintf("%s-seed%d-trace%d.%s", r.workload, r.seed, b2i(r.traced), kind))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// removeAndSync deletes dir and waits until its filesystem has committed
// the deletion. On a filesystem mounted with online discard, deleting the
// thousands of files a campaign store holds leaves seconds of discard work
// that slows every later file creation and fsync; waiting for it here,
// outside any timing, keeps that cost out of the next measurement.
func removeAndSync(dir string) error {
	err := os.RemoveAll(dir)
	syscall.Sync()
	return err
}

// memSampleEvery is the sampling period of a pass's peak memory.
const memSampleEvery = 10 * time.Millisecond

// sampleMemory samples the memory the Go runtime has in use (all it has
// mapped, less free heap pages whether or not returned to the OS) until
// the returned stop is called, and stop returns the peak in MiB. The
// process is pure Go, so this is the process's resident memory less
// what the runtime keeps only as a reserve; unlike the kernel's peak RSS
// it is taken during one pass and does not carry an earlier pass's peak.
func sampleMemory() (stop func() float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	read := func() uint64 {
		metrics.Read(samples)
		return samples[0].Value.Uint64() - samples[1].Value.Uint64() - samples[2].Value.Uint64()
	}
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		p := read()
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- max(p, read())
				return
			case <-tick.C:
				p = max(p, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / (1 << 20)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := compareRecords(os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload: figures, cell16, functional or campaign")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 25, "measured time budget in seconds")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: figures, cell16, functional, campaign)\n")
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		extra:    passOut{},
	}
	correct, err := r.execute(fn, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// execute runs the workload (and, traced, the microbenchmarks) in a
// scratch directory it removes afterwards, then reports.
func (r *run) execute(fn func(r *run) error, seconds int) (correct bool, err error) {
	if err := os.MkdirAll(filepath.Join(".perfbench", "tmp"), 0o755); err != nil {
		return false, err
	}
	r.tmp, err = os.MkdirTemp(filepath.Join(".perfbench", "tmp"), r.workload+"-")
	if err != nil {
		return false, err
	}
	defer removeAndSync(r.tmp)
	if err := fn(r); err != nil {
		return false, err
	}
	if r.traced {
		if err := microbench(r); err != nil {
			return false, err
		}
	}
	correct = r.failed == 0
	return correct, r.report(seconds, correct)
}

// report prints the human-readable metrics, writes the run record (and the
// spans of a traced run), and prints the result line last.
func (r *run) report(seconds int, correct bool) error {
	out := passOut{}
	defs := endToEnd
	if r.traced {
		defs = perLayer()
	}
	fmt.Printf("workload %s seed %d, %d untraced + %d traced passes\n",
		r.workload, r.seed, len(r.untraced), len(r.tracedP))
	for _, f := range r.checkFails {
		fmt.Printf("CHECK FAILED %s\n", f)
	}
	if !r.traced {
		fmt.Println("end-to-end metrics (median [tail percentile] over passes, n = passes):")
		for _, d := range append(append([]metricDef(nil), endToEnd...), reportedOnly...) {
			r.printE2E(d)
		}
	} else {
		fmt.Println("per-layer metrics (traced passes) and the end-to-end metric each should move:")
	}
	missing := []string{}
	for _, d := range defs {
		v, ok := r.value(d.Name)
		if !ok {
			if r.traced {
				v = 0 // the workload does not exercise this layer
			} else {
				missing = append(missing, d.Name)
				continue
			}
		}
		out[d.Name] = v
		if r.traced {
			fmt.Printf("  %-34s %14.6g %-7s -> %s\n", d.Name, v, d.Unit, d.Moves)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	if r.traced {
		r.printCosts()
	}

	if err := os.MkdirAll(".perfbench", 0o755); err != nil {
		return err
	}
	rec := record{
		Workload: r.workload, Seed: r.seed, Seconds: seconds, Trace: r.traced,
		Env: captureEnv("."), Correct: correct, Metrics: out,
		Extra: map[string]any{
			"untraced_passes": r.untraced, "traced_passes": r.tracedP, "once": r.extra,
			"setup_only_s": r.setupExtra, "check_failures": r.checkFails,
		},
	}
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n",
		rec.Env.GOMAXPROCS, rec.Env.NumCPU, rec.Env.CPUModel, rec.Env.GoVersion, rec.Env.Commit)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(r.outPath("json"), b, 0o644); err != nil {
		return err
	}
	if r.traced {
		f, err := os.Create(r.outPath("spans.jsonl"))
		if err != nil {
			return err
		}
		werr := writeSpans(f, r.tr.closed())
		if err := errors.Join(werr, f.Close()); err != nil {
			return err
		}
	}

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(out))
	for _, d := range defs {
		v := out[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printE2E prints one end-to-end metric as its median, the highest
// percentile with ten samples beyond it, and the sample count.
func (r *run) printE2E(d metricDef) {
	if d.Name == "failed_frac" {
		fmt.Printf("  %-16s %12.6g %-6s (%d failed / %d attempted)\n", d.Name,
			ratio(float64(r.failed), float64(max(r.attempted, 1))), d.Unit, r.failed, r.attempted)
		return
	}
	xs := r.values(d.Name, false)
	if len(xs) == 0 {
		fmt.Printf("  %-16s %12s %-6s (not defined on %s)\n", d.Name, "n/a", d.Unit, r.workload)
		return
	}
	t := summarize(xs)
	tail := "no tail: < 20 samples"
	if t.TailP > 0 {
		tail = fmt.Sprintf("p%d %.6g", t.TailP, t.Tail)
	}
	fmt.Printf("  %-16s %12.6g %-6s (%s, n=%d)\n", d.Name, t.Median, d.Unit, tail, t.N)
}

// costRow is one line of the traced run's "where the time goes" table: a
// layer's cost per call, taken from the microbenchmark metric Metric in
// units of Unit, times the number of calls a pass made.
type costRow struct {
	Layer  string
	Metric string
	Unit   time.Duration
	Calls  float64
	Source string // where the call count comes from
}

func (r *run) printCosts() {
	wall, _ := r.value("wall_s")
	fmt.Printf("where the time goes (traced passes, per pass; wall_s %.4g s):\n", wall)
	fmt.Printf("  %-18s %12s %12s %10s %8s  %s\n", "layer", "per call", "calls", "total s", "of wall", "calls from")
	var est float64
	for _, c := range r.costs {
		v, _ := r.value(c.Metric)
		per := time.Duration(v * float64(c.Unit))
		tot := per.Seconds() * c.Calls
		est += tot
		fmt.Printf("  %-18s %12s %12.0f %10.4f %8.3f  %s\n", c.Layer, per, c.Calls, tot, ratio(tot, wall), c.Source)
	}
	totals := spanTotals(r.tr.closed())
	sort.Slice(totals, func(i, j int) bool { return totals[i].Self > totals[j].Self })
	passes := float64(max(len(r.tracedP), 1))
	fmt.Printf("  span self times (name, calls, total s, self s, self/wall):\n")
	var self float64
	for _, t := range totals {
		if strings.HasPrefix(t.Name, "micro.") {
			continue
		}
		s := t.Self.Seconds() / passes
		self += s
		fmt.Printf("    %-28s %8.0f %12.4f %12.4f %8.3f\n", t.Name, float64(t.Calls)/passes,
			t.Total.Seconds()/passes, s, ratio(s, wall))
	}
	fmt.Printf("  layer costs add up to %.4g s; span self times to %.4g s; wall_s %.4g s\n", est, self, wall)
}
