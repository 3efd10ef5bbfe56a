// Package sweep is the shared experiment-execution engine behind every
// table and figure runner. A sweep is a batch of cells — one simulation
// each, identified by a (workload, configuration, run options) tuple — and
// the engine executes them on a bounded worker pool with:
//
//   - content-addressed result deduplication: because a simulation is
//     deterministic in (Config, workload, RunOptions), identical cells
//     across figures simulate exactly once per engine and every later
//     request is served from an in-memory cache (`secbench -exp all`
//     re-uses the Unsecure baseline across nearly every figure);
//   - in-flight coalescing: a cell requested while an identical cell is
//     already simulating waits for that run instead of starting another;
//   - context cancellation: a cancelled context stops dispatching new
//     cells, lets running simulations finish, and returns ctx.Err();
//   - per-cell panic recovery: a crashed simulation becomes that cell's
//     error instead of a process abort;
//   - a pluggable progress observer (total/done/cached/failed counters and
//     per-cell durations) whose default is silent;
//   - optional durability (SetStore/SetJournal): completed cells persist
//     to an on-disk content-addressed store as they finish and a
//     restarted engine rehydrates them instead of re-simulating, with a
//     per-run append-only journal as the crash-forensics record.
//
// A cell runs once per engine: a failure is journaled and cached, and a
// resumed run (a fresh engine on the same store) re-simulates it.
//
// Workers acquire a pool slot before building a cell's traces, so the
// worker bound limits live goroutines and trace allocations, not just
// concurrently running simulations.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"secmgpu/internal/config"
	"secmgpu/internal/machine"
	"secmgpu/internal/store"
	"secmgpu/internal/workload"
)

// Cell is one simulation request: a workload under a concrete system
// configuration and run options.
type Cell struct {
	Spec workload.Spec
	Cfg  config.Config
	Opt  machine.RunOptions
	// Label annotates errors and progress events ("mm under Private
	// (OTP 4x)"); it does not affect the result identity.
	Label string
}

func (c Cell) label() string {
	if c.Label != "" {
		return c.Label
	}
	return c.Spec.Abbr
}

// Key is the canonical identity of a cell's result. Simulations are
// deterministic in exactly this tuple (the workload abbreviation names the
// registered Spec; RunOptions is canonicalized so unset fields and their
// explicit defaults collide), so two cells with equal keys have identical
// results and the engine simulates only the first.
type Key struct {
	Cfg  config.Config
	Abbr string
	Opt  machine.RunOptions
}

// Key returns the cell's canonical cache key.
func (c Cell) Key() Key {
	return Key{Cfg: c.Cfg, Abbr: c.Spec.Abbr, Opt: c.Opt.Canonical()}
}

// Digest returns the key's content address: the hex SHA-256 of its
// canonical JSON encoding. The durable store files results under this
// digest, so any config or option change produces a different address
// and an older result can never be served for it.
func (k Key) Digest() string {
	b, err := json.Marshal(k)
	if err != nil {
		// Key is a flat value struct; this cannot fail at runtime.
		panic(fmt.Sprintf("sweep: key digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Event describes one completed cell and the progress of its sweep.
type Event struct {
	// Label identifies the cell.
	Label string
	// Cached reports that the result was served from the engine cache
	// (or coalesced onto an identical in-flight simulation).
	Cached bool
	// Err is the cell's failure, nil on success.
	Err error
	// Duration is the cell's wall time (near zero for cache hits).
	Duration time.Duration
	// Done, Total, CachedCells, and FailedCells are the sweep-local
	// progress counters after this cell.
	Done, Total, CachedCells, FailedCells int
}

// Observer receives one Event per completed cell. Calls are serialized per
// sweep; a nil observer is silent.
type Observer func(Event)

// Stats are the engine's cumulative counters across all sweeps.
type Stats struct {
	// Cells is the number of cell requests received.
	Cells int
	// Simulated is the number of simulations actually executed.
	Simulated int
	// CacheHits counts cells served by in-memory deduplication instead
	// of a new simulation.
	CacheHits int
	// StoreHits counts cells rehydrated from the durable store instead
	// of simulating (zero without an attached store).
	StoreHits int
	// Failed is the number of executed simulations that returned an
	// error (including recovered panics).
	Failed int
	// SimTime is the summed wall time of executed simulations.
	SimTime time.Duration
}

// Engine executes sweeps on a bounded worker pool and deduplicates results
// across every sweep it runs. It is safe for concurrent use.
type Engine struct {
	workers int

	mu      sync.Mutex
	obs     Observer
	cache   map[Key]*entry
	stats   Stats
	timeout time.Duration
	store   *store.Store
	journal *store.Journal

	// simulate executes one cell; tests substitute it to inject
	// failures, panics, and timing probes.
	simulate func(Cell) (*machine.Result, error)
}

// entry is one cache slot. done is closed once res/err are final, so
// identical in-flight requests coalesce by waiting on it.
type entry struct {
	done chan struct{}
	res  *machine.Result
	err  error
}

// New returns an engine whose default per-sweep parallelism is workers
// (<= 0 selects GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:  workers,
		cache:    make(map[Key]*entry),
		simulate: Simulate,
	}
}

// Observe installs the progress observer (nil silences it again).
func (e *Engine) Observe(obs Observer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.obs = obs
}

// SetCellTimeout bounds each cell's simulation wall time (<= 0 disables the
// bound, the default). A cell that exceeds the deadline fails with an error
// naming the timeout — the same path as a panicking cell — so one divergent
// simulation (a livelocked recovery loop, a pathological config) cannot hang
// an entire sweep. The abandoned simulation's goroutine is left to finish in
// the background; its eventual result is discarded, and the cell's cache
// entry holds the timeout error (a resumed run re-simulates the cell).
func (e *Engine) SetCellTimeout(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.timeout = d
}

// SetStore attaches a durable result store (nil detaches). With a store
// attached, a cache-miss cell is looked up on disk before simulating —
// a restarted run rehydrates everything a previous run persisted — and
// every successful simulation is persisted as it finishes, so progress
// survives a crash or SIGKILL mid-campaign.
func (e *Engine) SetStore(st *store.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = st
}

// SetJournal attaches a run journal (nil detaches). The engine records
// cell starts, completions, store restorations, and failures; journal
// write errors never fail a sweep (check Journal.Err at the end).
func (e *Engine) SetJournal(j *store.Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = j
}

// Stats returns a snapshot of the cumulative counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Simulate executes one cell: build the per-GPU traces, assemble the
// machine, run it. The engine calls it through a panic guard, so a crash
// in any layer of the simulator becomes the cell's error.
func Simulate(c Cell) (*machine.Result, error) {
	return SimulateContext(context.Background(), c)
}

// SimulateContext is Simulate with cancellation: a cancelled ctx aborts
// the simulation within a bounded number of events and returns ctx's
// error. Campaign workers use it so a lost coordinator or a shutdown
// signal stops an in-flight cell instead of orphaning it.
func SimulateContext(ctx context.Context, c Cell) (*machine.Result, error) {
	sys, err := machine.New(c.Cfg, workload.Traces(c.Spec, c.Cfg.NumGPUs, c.Cfg.Scale, c.Cfg.Seed), c.Opt)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// SetSimulator replaces the engine's cell executor (nil restores the
// default in-process Simulate). The campaign coordinator substitutes a
// delegating executor that enqueues the cell on its lease queue and waits
// for a worker to publish the result; the engine's caching, coalescing,
// store rehydration, and journaling all apply unchanged around it. The
// executor runs under the engine's panic guard.
func (e *Engine) SetSimulator(sim func(Cell) (*machine.Result, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if sim == nil {
		sim = Simulate
	}
	e.simulate = sim
}

// Run executes one sweep and returns the results in cell order. Identical
// cells — within the sweep, across sweeps, or in flight on another sweep —
// simulate once. parallelism bounds this sweep's workers (<= 0 selects the
// engine default). On cancellation Run stops dispatching, waits for
// in-flight cells, and returns ctx.Err(); otherwise the first failed
// cell's error (annotated with its label) is returned. Results may be
// shared with other sweeps and must be treated as read-only.
func (e *Engine) Run(ctx context.Context, cells []Cell, parallelism int) ([]*machine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if parallelism <= 0 {
		parallelism = e.workers
	}
	if parallelism > len(cells) {
		parallelism = len(cells)
	}

	e.mu.Lock()
	obs := e.obs
	e.mu.Unlock()
	total := len(cells)
	var pm sync.Mutex
	var done, cachedN, failedN int
	notify := func(c Cell, cached bool, d time.Duration, err error) {
		pm.Lock()
		defer pm.Unlock()
		done++
		if cached {
			cachedN++
		}
		if err != nil {
			failedN++
		}
		if obs != nil {
			obs(Event{
				Label: c.label(), Cached: cached, Err: err, Duration: d,
				Done: done, Total: total, CachedCells: cachedN, FailedCells: failedN,
			})
		}
	}

	results := make([]*machine.Result, total)
	errs := make([]error, total)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain the queue without simulating
				}
				start := time.Now()
				res, cached, err := e.cell(ctx, cells[i])
				results[i], errs[i] = res, err
				if err == nil || ctx.Err() == nil {
					notify(cells[i], cached, time.Since(start), err)
				}
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].label(), err)
		}
	}
	return results, nil
}

// protect runs one simulation under a panic guard: a crash in any layer
// of the simulator becomes that cell's error instead of a process abort.
func protect(sim func(Cell) (*machine.Result, error), c Cell) (res *machine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panic: %v\n%s", r, debug.Stack())
		}
	}()
	return sim(c)
}

// run executes one simulation under the panic guard and, when a cell
// timeout is configured, a wall-clock deadline.
func (e *Engine) run(c Cell, timeout time.Duration) (*machine.Result, error) {
	if timeout <= 0 {
		return protect(e.simulate, c)
	}
	type outcome struct {
		res *machine.Result
		err error
	}
	// Buffered so the abandoned goroutine can deposit its late result and
	// exit instead of leaking.
	ch := make(chan outcome, 1)
	go func() {
		res, err := protect(e.simulate, c)
		ch <- outcome{res, err}
	}()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-time.After(timeout):
		return nil, fmt.Errorf("simulation exceeded cell timeout %v", timeout)
	}
}

// cell resolves one cell: serve it from the in-memory cache, wait on an
// identical in-flight simulation, rehydrate it from the durable store,
// or execute it once and publish — and persist — the outcome.
func (e *Engine) cell(ctx context.Context, c Cell) (*machine.Result, bool, error) {
	k := c.Key()
	e.mu.Lock()
	e.stats.Cells++
	if ent, ok := e.cache[k]; ok {
		e.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		e.mu.Lock()
		e.stats.CacheHits++
		e.mu.Unlock()
		return ent.res, true, ent.err
	}
	ent := &entry{done: make(chan struct{})}
	e.cache[k] = ent
	st, j := e.store, e.journal
	timeout := e.timeout
	e.mu.Unlock()

	var dig string
	if st != nil || j != nil {
		dig = k.Digest()
	}

	// A previous run may have persisted this cell; a verified entry is
	// served without simulating (a changed binary or corrupt file is
	// quarantined inside Get and falls through to a fresh simulation).
	if st != nil {
		if res, ok := st.Get(dig); ok {
			ent.res = res
			close(ent.done)
			e.mu.Lock()
			e.stats.StoreHits++
			e.mu.Unlock()
			j.Append(store.Record{T: store.RecRestored, Cell: dig, Label: c.label()})
			return res, true, nil
		}
	}

	j.Append(store.Record{T: store.RecStart, Cell: dig, Label: c.label(), Attempt: 1})
	start := time.Now()
	res, err := e.run(c, timeout)
	dur := time.Since(start)
	e.mu.Lock()
	e.stats.Simulated++
	e.stats.SimTime += dur
	if err != nil {
		e.stats.Failed++
	}
	e.mu.Unlock()

	if err != nil {
		j.Append(store.Record{T: store.RecFailed, Cell: dig, Label: c.label(), Attempt: 1, Err: err.Error()})
	} else {
		// Persist before journaling success, so a RecDone record always
		// refers to an entry that is durable on disk.
		if res != nil && st != nil {
			st.Put(dig, c.label(), res)
		}
		j.Append(store.Record{T: store.RecDone, Cell: dig, Label: c.label(), Millis: dur.Milliseconds()})
	}
	ent.res, ent.err = res, err
	close(ent.done)
	return res, false, err
}
