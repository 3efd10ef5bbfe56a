package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/machine"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// figuresScale keeps one pass of the whole reproduction near 10 s on a
// 2-CPU host, so a 25 s run holds two passes. Per-cell set-up (Traces +
// machine.New) is then about 40% of cell time, more than at larger scales.
const figuresScale = 0.01

// figuresPar is secbench's -par: the sweep's cell parallelism, sized for
// a 2-CPU host.
const figuresPar = 2

// paperAvg are the paper's avg-row slowdowns for the figures whose
// reference values EXPERIMENTS.md records, by column order of the
// reproduced table.
var paperAvg = map[string][]float64{
	"fig21": {1.195, 1.140, 1.163, 1.147, 1.079},
	"fig24": {1.293, 1.214, 1.122},
	"fig25": {1.321, 1.278, 1.146},
}

// runFigures runs every registered experiment in registry order through
// one shared sweep engine, as `secbench -exp all -par 2` does.
func runFigures(r *run) error {
	reg := experiments.Registry()
	names := experiments.Names()
	var first string
	return r.loop(1, func(i int, tr *tracer) (passOut, error) {
		f := &figPass{tr: tr, seen: make(map[traceKey]bool)}
		engine := sweep.New(figuresPar)
		engine.Observe(f.observe)
		engine.SetSimulator(f.simulate)
		p := experiments.Params{GPUs: 4, Scale: figuresScale, Seed: r.seed, Parallelism: figuresPar, Engine: engine}

		var ms0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		pass := tr.begin("pass", 0)
		t0 := time.Now()
		out := passOut{}
		h := sha256.New()
		var gaps []float64
		for _, name := range names {
			span := tr.begin("experiments."+name, pass)
			f.expSpan.Store(span)
			e0 := time.Now()
			table, err := reg[name](context.Background(), p)
			tr.end(span)
			out["experiments."+name+"_s"] = time.Since(e0).Seconds()
			r.check("experiment "+name+" ran", err == nil, "%v", err)
			if err != nil {
				continue
			}
			fmt.Fprintf(h, "%s\n%s", name, table.String())
			if want, ok := paperAvg[name]; ok {
				avg := table.MeanRow()
				r.check("paper columns of "+name, len(avg.Values) == len(want), "%d columns, want %d", len(avg.Values), len(want))
				for c := range want {
					if c < len(avg.Values) {
						gaps = append(gaps, 100*math.Abs(avg.Values[c]-want[c]))
					}
				}
			}
		}
		wall := time.Since(t0).Seconds()
		tr.end(pass)

		digest := hex.EncodeToString(h.Sum(nil))
		if i == 0 {
			first = digest
		}
		r.check("tables identical across passes", digest == first, "pass %d digest %s, pass 0 %s", i, digest, first)
		st := engine.Stats()
		r.attempted += st.Cells
		r.failed += st.Failed

		f.mu.Lock()
		defer f.mu.Unlock()
		out["setup_s"] = f.traces.Seconds() + f.newSys.Seconds()
		out["wall_s"] = wall
		out["paper_gap_pp"] = sum(gaps) / float64(len(gaps))
		if tr == nil {
			return out, nil
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		out["workload.traces_s"] = f.traces.Seconds()
		out["workload.trace_reuse_frac"] = ratio(float64(f.reused), float64(f.calls))
		out["machine.new_s"] = f.newSys.Seconds()
		out["machine.run_s"] = f.runSys.Seconds()
		out["machine.host_ns_per_msg"] = ratio(float64(f.runSys.Nanoseconds()), float64(f.messages))
		// Cells run two at a time, so allocation is taken over the whole
		// pass and divided by every simulated op.
		out["machine.alloc_b_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(f.ops))
		out["sweep.cells_requested"] = float64(st.Cells)
		out["sweep.cells_simulated"] = float64(st.Simulated)
		out["sweep.dedup_frac"] = ratio(float64(st.CacheHits), float64(st.Cells))
		out["sweep.cell_s_p50"] = quantile(f.cellSecs, 0.5)
		out["sweep.cell_s_p99"] = quantile(f.cellSecs, 0.99)
		out["sweep.cell_s_max"] = quantile(f.cellSecs, 1)
		out["sweep.busy_frac"] = ratio(st.SimTime.Seconds(), wall*figuresPar)
		return out, nil
	})
}

// traceKey identifies one generated trace set.
type traceKey struct {
	abbr  string
	gpus  int
	scale float64
	seed  int64
}

// figPass collects one figures pass's per-cell timings.
type figPass struct {
	tr      *tracer
	expSpan atomic.Int64 // span of the experiment now running

	mu                     sync.Mutex
	traces, newSys, runSys time.Duration
	calls, reused          int
	seen                   map[traceKey]bool
	messages, ops          uint64
	cellSecs               []float64
}

// simulate performs exactly sweep.SimulateContext's three calls for the
// engine's default in-process executor, timing each.
func (f *figPass) simulate(c sweep.Cell) (*machine.Result, error) {
	cell := f.tr.begin("cell", f.expSpan.Load())
	defer f.tr.end(cell)
	t0 := time.Now()
	var traces [][]workload.Op
	f.tr.do("workload.Traces", cell, func(int64) {
		traces = workload.Traces(c.Spec, c.Cfg.NumGPUs, c.Cfg.Scale, c.Cfg.Seed)
	})
	t1 := time.Now()
	var sys *machine.System
	var err error
	f.tr.do("machine.New", cell, func(int64) { sys, err = machine.New(c.Cfg, traces, c.Opt) })
	t2 := time.Now()
	var res *machine.Result
	if err == nil {
		f.tr.do("machine.RunContext", cell, func(int64) { res, err = sys.RunContext(context.Background()) })
	}
	t3 := time.Now()

	key := traceKey{c.Spec.Abbr, c.Cfg.NumGPUs, c.Cfg.Scale, c.Cfg.Seed}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.traces += t1.Sub(t0)
	f.newSys += t2.Sub(t1)
	f.runSys += t3.Sub(t2)
	f.calls++
	if f.seen[key] {
		f.reused++
	}
	f.seen[key] = true
	if res != nil {
		f.messages += res.Traffic.Messages
		f.ops += res.Ops
	}
	return res, err
}

// observe records the duration of every simulated (not cached) cell.
func (f *figPass) observe(ev sweep.Event) {
	if ev.Cached || ev.Err != nil {
		return
	}
	f.mu.Lock()
	f.cellSecs = append(f.cellSecs, ev.Duration.Seconds())
	f.mu.Unlock()
}
