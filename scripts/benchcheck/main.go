// Command benchcheck guards the simulation kernel's performance: it parses
// `go test -bench` output, compares it against the committed baseline
// (BENCH_baseline.json at the repo root), and fails when throughput drops
// or allocations per op grow beyond their tolerances.
//
// Two gates apply to every benchmark in the baseline. Ops/s, reported only
// by the whole-simulation benchmarks, may drop by -ops-tolerance. Allocs/op
// may grow by allocsTolerance (10%): allocation counts are near-
// deterministic, so the bound is tight, and a benchmark whose baseline
// allocates nothing must keep allocating nothing. Ns/op and B/op are
// reported for context.
//
// Gate a change (CI runs exactly this):
//
//	{ go test -run '^$' -bench BenchmarkSimulatorThroughput -benchtime 1x -benchmem -count 2 . ;
//	  go test -run '^$' -bench . -benchmem ./internal/mem ./internal/sim ./internal/machine ./internal/campaign ; } \
//	  | go run ./scripts/benchcheck -ops-tolerance 0.20
//
// Capture/update the baseline with the same benchmarks, repeated:
//
//	{ go test -run '^$' -bench BenchmarkSimulatorThroughput -benchtime 3x -benchmem -count 3 . ;
//	  go test -run '^$' -bench . -benchmem -count 3 ./internal/mem ./internal/sim ./internal/machine ./internal/campaign ; } \
//	  | go run ./scripts/benchcheck -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark reference. Env records where the
// numbers came from; the comparison itself is machine-relative (CI compares
// a fresh run against a fresh -update on the same machine class).
type Baseline struct {
	Env        map[string]string    `json:"env,omitempty"`
	Benchmarks map[string]BenchLine `json:"benchmarks"`
}

// BenchLine is one benchmark's reference numbers. OpsPerSec and AllocsPerOp
// are gated; the others are advisory context. AllocsPerOp is kept even when
// zero, since zero is the bound a non-allocating benchmark is held to.
type BenchLine struct {
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the parsed output instead of comparing")
	opsTol := flag.Float64("ops-tolerance", 0.20, "allowed fractional ops/s drop before the check fails")
	in := flag.String("in", "-", "bench output to read ('-' = stdin)")
	flag.Parse()

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	got, env, err := parseBench(r)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

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

	failed := 0
	for name, want := range base.Benchmarks {
		have, ok := got[name]
		if !ok {
			fmt.Printf("benchcheck: %s: FAIL, not in this run\n", name)
			failed++
			continue
		}
		status := "ok"
		if regressed(want, have, *opsTol) {
			status = "FAIL"
			failed++
		}
		fmt.Printf("benchcheck: %-32s %s  ops/s %s  allocs/op %s  B/op %s\n",
			name, status,
			delta(have.OpsPerSec, want.OpsPerSec),
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

// regressed reports whether have fails either gate against want: ops/s
// below want's by more than opsTol (when want reports ops/s), or allocs/op
// above want's by more than allocsTolerance, where a zero baseline allows
// no allocation at all.
func regressed(want, have BenchLine, opsTol float64) bool {
	slower := want.OpsPerSec > 0 && have.OpsPerSec < want.OpsPerSec*(1-opsTol)
	return slower || have.AllocsPerOp > want.AllocsPerOp*(1+allocsTolerance)
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

// parseBench extracts benchmark metrics from `go test -bench` output. Lines
// repeat under -count; the best value per benchmark is kept (max for
// throughput, min for costs) so the gate is robust to scheduler noise.
func parseBench(r io.Reader) (map[string]BenchLine, map[string]string, error) {
	out := make(map[string]BenchLine)
	env := make(map[string]string)
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
		// Benchmark names carry a -GOMAXPROCS suffix ("-8") on parallel
		// machines; strip it so baselines transfer across core counts.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		cur, seen := out[name]
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				if !seen || v < cur.NsPerOp {
					cur.NsPerOp = v
				}
			case "ops/s":
				if v > cur.OpsPerSec {
					cur.OpsPerSec = v
				}
			case "allocs/op":
				if !seen || v < cur.AllocsPerOp {
					cur.AllocsPerOp = v
				}
			case "B/op":
				if !seen || v < cur.BytesPerOp {
					cur.BytesPerOp = v
				}
			}
		}
		out[name] = cur
	}
	return out, env, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(2)
}
