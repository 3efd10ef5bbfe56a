// Command benchcheck guards the simulation kernel's performance: it parses
// `go test -bench` output, compares it against the committed baseline
// (BENCH_baseline.json at the repo root), and fails when allocations per op
// grow beyond their tolerance or, in a paired run, throughput drops.
//
// Allocs/op may grow by allocsTolerance (10%) over the baseline for every
// benchmark in it: allocation counts are near-deterministic, so the bound
// is tight and holds on any host, and a benchmark whose baseline allocates
// nothing must keep allocating nothing. Ns/op and B/op are reported for
// context.
//
// Ops/s, reported only by the whole-simulation benchmarks, depends on the
// host, so it is never compared with committed numbers. With -base, the
// input holds runs of the change and -base as many runs of the commit it is
// measured against, taken alternately on one host. Run i of each side form
// pair i; the median over at least minPairs pairs of the change's ops/s
// over the base's may drop by -ops-tolerance. Without -base only allocs/op
// are gated.
//
// Gate a change against its merge base as CI does, from the repo root
// (scripts/benchpair.sh runs both sides' benchmarks alternately, then this
// command with -base):
//
//	bash scripts/benchpair.sh "$(git merge-base HEAD origin/main)"
//
// Gate allocs/op alone:
//
//	{ go test -run '^$' -bench BenchmarkSimulatorThroughput -benchtime 1x -benchmem . ;
//	  go test -run '^$' -bench . -benchmem ./internal/mem ./internal/sim ./internal/machine ./internal/interconnect ./internal/secure ./internal/campaign ./internal/store ./internal/crypto ./internal/workload ./internal/otp ./internal/core ./internal/migration ; } \
//	  | go run ./scripts/benchcheck
//
// Capture/update the baseline with the same benchmarks, repeated. The
// throughput benchmarks run as scripts/benchpair.sh gates them, one
// -benchtime 1x process per run: the process-wide trace and link-seed
// caches then start cold, and a warm, longer run would read fewer
// allocs/op than the gate ever sees.
//
//	{ for i in 1 2 3; do go test -run '^$' -bench BenchmarkSimulatorThroughput -benchtime 1x -benchmem . ; done ;
//	  go test -run '^$' -bench . -benchmem -count 3 ./internal/mem ./internal/sim ./internal/machine ./internal/interconnect ./internal/secure ./internal/campaign ./internal/store ./internal/crypto ./internal/workload ./internal/otp ./internal/core ./internal/migration ; } \
//	  | go run ./scripts/benchcheck -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference. Env records where the
// numbers came from: goos, goarch, cpu, gomaxprocs and nproc.
type Baseline struct {
	Env        map[string]string    `json:"env,omitempty"`
	Benchmarks map[string]BenchLine `json:"benchmarks"`
}

// BenchLine is one benchmark's numbers. AllocsPerOp is gated against the
// baseline and kept even when zero, since zero is the bound a
// non-allocating benchmark is held to. OpsPerSec is gated only between
// paired runs, so the baseline does not record it; the others are advisory
// context.
type BenchLine struct {
	OpsPerSec   float64 `json:"-"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

// minPairs is the fewest parent/change pairs the paired gate accepts.
const minPairs = 5

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed output instead of comparing")
	opsTol := flag.Float64("ops-tolerance", 0.20, "allowed drop of the median paired ops/s ratio before the check fails (with -base)")
	in := flag.String("in", "-", "bench output to read ('-' = stdin)")
	basePath := flag.String("base", "", "bench output of the commit to pair against; gates ops/s by the median per-pair ratio")
	flag.Parse()

	runs, env, err := readBench(*in)
	if err != nil {
		fatal(err)
	}
	if len(runs) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	got := best(runs)

	if *update {
		b := Baseline{Env: env, Benchmarks: got}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *baselinePath, err))
	}

	var baseRuns map[string][]BenchLine
	if *basePath != "" {
		if baseRuns, _, err = readBench(*basePath); err != nil {
			fatal(err)
		}
	}

	failed := 0
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("benchcheck: %s: FAIL, not in this run\n", name)
			failed++
			continue
		}
		ops := "-"
		bad := regressed(want, have)
		if baseRuns != nil && have.OpsPerSec > 0 {
			r, n, err := pairedRatio(baseRuns[name], runs[name])
			switch {
			case err != nil:
				fmt.Printf("benchcheck: %s: FAIL, %v\n", name, err)
				bad = true
			case n == 0:
				ops = "new, no base runs"
			default:
				ops = fmt.Sprintf("median of %d paired ratios %.3f", n, r)
				bad = bad || r < 1-*opsTol
			}
		}
		status := "ok"
		if bad {
			status = "FAIL"
			failed++
		}
		fmt.Printf("benchcheck: %-32s %s  ops/s %s  allocs/op %s  B/op %s\n",
			name, status, ops,
			delta(have.AllocsPerOp, want.AllocsPerOp),
			delta(have.BytesPerOp, want.BytesPerOp))
	}
	if failed > 0 {
		fmt.Printf("benchcheck: %d benchmark(s) missing, lost more than %.0f%% ops/s or gained more than %.0f%% allocs/op\n",
			failed, *opsTol*100, allocsTolerance*100)
		os.Exit(1)
	}
}

// allocsTolerance is the allowed fractional allocs/op rise.
const allocsTolerance = 0.10

// regressed reports whether have's allocs/op exceed want's by more than
// allocsTolerance, where a zero baseline allows no allocation at all.
func regressed(want, have BenchLine) bool {
	return have.AllocsPerOp > want.AllocsPerOp*(1+allocsTolerance)
}

// pairedRatio pairs the i-th base run with the i-th head run and returns
// the median of head/base ops/s over the n pairs. n is 0 when the base has
// no runs of the benchmark (it is new); otherwise both sides need the same
// number of runs, at least minPairs.
func pairedRatio(base, head []BenchLine) (median float64, n int, err error) {
	if len(base) == 0 {
		return 0, 0, nil
	}
	if len(base) != len(head) || len(head) < minPairs {
		return 0, 0, fmt.Errorf("%d base and %d head runs, want equal counts of at least %d", len(base), len(head), minPairs)
	}
	ratios := make([]float64, len(head))
	for i := range head {
		if base[i].OpsPerSec <= 0 {
			return 0, 0, fmt.Errorf("base run %d reports no ops/s", i+1)
		}
		ratios[i] = head[i].OpsPerSec / base[i].OpsPerSec
	}
	sort.Float64s(ratios)
	n = len(ratios)
	if n%2 == 1 {
		return ratios[n/2], n, nil
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2, n, nil
}

// delta renders "current vs baseline (+x%)"; "-" when both are absent.
func delta(have, want float64) string {
	switch {
	case want == 0 && have == 0:
		return "-"
	case want == 0:
		return fmt.Sprintf("%.0f vs 0", have)
	}
	return fmt.Sprintf("%.0f vs %.0f (%+.1f%%)", have, want, 100*(have/want-1))
}

func readBench(path string) (map[string][]BenchLine, map[string]string, error) {
	if path == "-" {
		return parseBench(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// parseBench extracts every run of every benchmark from `go test -bench`
// output, in input order, and the environment it ran in. GOMAXPROCS comes
// from the benchmark names' suffix and nproc from this process, which runs
// on the host that ran the benchmarks.
func parseBench(r io.Reader) (map[string][]BenchLine, map[string]string, error) {
	out := make(map[string][]BenchLine)
	env := map[string]string{"gomaxprocs": "1", "nproc": strconv.Itoa(runtime.NumCPU())}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, k := range [...]string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, k+": "); ok {
				env[k] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Benchmark names carry a -GOMAXPROCS suffix ("-8") unless
		// GOMAXPROCS is 1; strip it so baselines transfer across core
		// counts.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				env["gomaxprocs"] = name[i+1:]
				name = name[:i]
			}
		}
		var cur BenchLine
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				cur.NsPerOp = v
			case "ops/s":
				cur.OpsPerSec = v
			case "allocs/op":
				cur.AllocsPerOp = v
			case "B/op":
				cur.BytesPerOp = v
			}
		}
		out[name] = append(out[name], cur)
	}
	return out, env, sc.Err()
}

// best folds each benchmark's runs into one line, keeping the best value
// of each metric (max for throughput, min for costs) so the gate is robust
// to scheduler noise.
func best(runs map[string][]BenchLine) map[string]BenchLine {
	out := make(map[string]BenchLine, len(runs))
	for name, rs := range runs {
		b := rs[0]
		for _, r := range rs[1:] {
			b.OpsPerSec = max(b.OpsPerSec, r.OpsPerSec)
			b.NsPerOp = min(b.NsPerOp, r.NsPerOp)
			b.AllocsPerOp = min(b.AllocsPerOp, r.AllocsPerOp)
			b.BytesPerOp = min(b.BytesPerOp, r.BytesPerOp)
		}
		out[name] = b
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(2)
}
