package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmgpu/internal/config"
	"secmgpu/internal/machine"
	"secmgpu/internal/workload"
)

// tinyCell returns a fast real simulation cell.
func tinyCell(t *testing.T, secure bool) Cell {
	t.Helper()
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(4)
	cfg.Scale = 0.02
	cfg.Secure = secure
	return Cell{Spec: spec, Cfg: cfg, Label: "mm tiny"}
}

func TestRunMatchesDirectSimulation(t *testing.T) {
	c := tinyCell(t, true)
	e := New(2)
	got, err := e.Run(context.Background(), []Cell{c}, 0)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cycles != direct.Cycles || got[0].Ops != direct.Ops {
		t.Errorf("engine result (%d cycles, %d ops) != direct (%d cycles, %d ops)",
			got[0].Cycles, got[0].Ops, direct.Cycles, direct.Ops)
	}
}

func TestCacheServesIdenticalCells(t *testing.T) {
	e := New(2)
	var sims atomic.Int32
	inner := e.simulate
	e.simulate = func(c Cell) (*machine.Result, error) {
		sims.Add(1)
		return inner(c)
	}
	a, b := tinyCell(t, false), tinyCell(t, true)

	// One sweep containing duplicates, then a second sweep of the same
	// cells: exactly two distinct simulations in total.
	first, err := e.Run(context.Background(), []Cell{a, b, a, b}, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(context.Background(), []Cell{a, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 2 {
		t.Errorf("simulated %d times, want 2", n)
	}
	if first[0] != first[2] || first[1] != first[3] || first[0] != second[0] || first[1] != second[1] {
		t.Error("identical cells did not share a result")
	}
	st := e.Stats()
	if st.Cells != 6 || st.Simulated != 2 || st.CacheHits != 4 || st.Failed != 0 {
		t.Errorf("stats=%+v, want 6 cells / 2 simulated / 4 hits / 0 failed", st)
	}
}

func TestKeyCanonicalizesRunOptions(t *testing.T) {
	c := tinyCell(t, false)
	explicit := c
	explicit.Opt = machine.RunOptions{TraceInterval: 10000}
	if c.Key() != explicit.Key() {
		t.Error("default and explicitly-defaulted options produced different keys")
	}
	traced := c
	traced.Opt = machine.RunOptions{TraceComms: true}
	if c.Key() == traced.Key() {
		t.Error("different options collided")
	}
}

func TestPreCancelledContextReturnsPromptly(t *testing.T) {
	e := New(2)
	e.simulate = func(Cell) (*machine.Result, error) {
		t.Error("simulate called despite cancelled context")
		return nil, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := e.Run(ctx, []Cell{tinyCell(t, false)}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled run took %v", d)
	}
}

func TestCancellationStopsDispatch(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	var sims atomic.Int32
	e.simulate = func(Cell) (*machine.Result, error) {
		sims.Add(1)
		cancel() // cancel while the first cell is "running"
		return &machine.Result{}, nil
	}
	cells := make([]Cell, 8)
	for i := range cells {
		c := tinyCell(t, false)
		c.Cfg.Seed = int64(i + 1) // distinct keys
		cells[i] = c
	}
	if _, err := e.Run(ctx, cells, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// The in-flight cell finished; at most one more was already queued.
	if n := sims.Load(); n > 2 {
		t.Errorf("%d cells simulated after cancellation, want <= 2", n)
	}
}

func TestPanicIsolation(t *testing.T) {
	e := New(2)
	inner := e.simulate
	e.simulate = func(c Cell) (*machine.Result, error) {
		if c.Label == "boom" {
			panic("injected crash")
		}
		return inner(c)
	}
	ok := tinyCell(t, false)
	bad := tinyCell(t, true)
	bad.Label = "boom"

	_, err := e.Run(context.Background(), []Cell{ok, bad}, 2)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err=%v, want the panicking cell's labelled error", err)
	}
	st := e.Stats()
	if st.Simulated != 2 || st.Failed != 1 {
		t.Errorf("stats=%+v, want both cells simulated and one failure", st)
	}

	// The engine survives: the healthy cell is cached and reusable.
	res, err := e.Run(context.Background(), []Cell{ok}, 1)
	if err != nil || res[0] == nil {
		t.Fatalf("engine unusable after panic: %v", err)
	}
}

func TestPanicInRealSimulationIsRecovered(t *testing.T) {
	// workload.Spec.Trace panics on an invalid spec; the engine must turn
	// that into a cell error, not a process abort.
	c := tinyCell(t, false)
	c.Spec.OpsPerGPU = -1
	e := New(1)
	_, err := e.Run(context.Background(), []Cell{c}, 1)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err=%v, want recovered panic", err)
	}
}

func TestWorkerPoolBoundsConcurrency(t *testing.T) {
	e := New(8)
	var cur, peak atomic.Int32
	e.simulate = func(Cell) (*machine.Result, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return &machine.Result{}, nil
	}
	cells := make([]Cell, 16)
	for i := range cells {
		c := tinyCell(t, false)
		c.Cfg.Seed = int64(i + 1)
		cells[i] = c
	}
	if _, err := e.Run(context.Background(), cells, 2); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d under parallelism 2", p)
	}
}

func TestObserverSeesProgress(t *testing.T) {
	e := New(2)
	e.simulate = func(c Cell) (*machine.Result, error) {
		if c.Label == "fail" {
			return nil, fmt.Errorf("synthetic failure")
		}
		return &machine.Result{}, nil
	}
	var mu sync.Mutex
	var events []Event
	e.Observe(func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	})

	ok := tinyCell(t, false)
	dup := ok
	bad := tinyCell(t, true)
	bad.Label = "fail"
	_, err := e.Run(context.Background(), []Cell{ok, dup, bad}, 1)
	if err == nil {
		t.Fatal("expected the synthetic failure to surface")
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.Done != 3 || last.Total != 3 || last.CachedCells != 1 || last.FailedCells != 1 {
		t.Errorf("final event=%+v, want done 3/3 with 1 cached and 1 failed", last)
	}
}

func TestErrorsAreCachedToo(t *testing.T) {
	e := New(1)
	var sims atomic.Int32
	e.simulate = func(Cell) (*machine.Result, error) {
		sims.Add(1)
		return nil, fmt.Errorf("deterministic failure")
	}
	c := tinyCell(t, false)
	for i := 0; i < 2; i++ {
		if _, err := e.Run(context.Background(), []Cell{c}, 1); err == nil {
			t.Fatal("expected failure")
		}
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("failing cell simulated %d times, want 1 (errors cached)", n)
	}
}

func TestCellTimeoutFailsSlowCell(t *testing.T) {
	e := New(2)
	e.SetCellTimeout(20 * time.Millisecond)
	block := make(chan struct{})
	e.simulate = func(c Cell) (*machine.Result, error) {
		if c.Label == "slow" {
			<-block
		}
		return &machine.Result{Cycles: 1}, nil
	}
	defer close(block)

	cells := []Cell{
		{Spec: workload.Spec{Abbr: "a"}, Label: "fast"},
		{Spec: workload.Spec{Abbr: "b"}, Label: "slow"},
	}
	_, err := e.Run(context.Background(), cells, 2)
	if err == nil || !strings.Contains(err.Error(), "cell timeout") {
		t.Fatalf("err=%v, want a cell-timeout failure", err)
	}
	if !strings.Contains(err.Error(), "slow") {
		t.Errorf("err=%v does not name the slow cell", err)
	}
}

func TestCellTimeoutDisabledByDefault(t *testing.T) {
	e := New(1)
	e.simulate = func(Cell) (*machine.Result, error) {
		time.Sleep(30 * time.Millisecond)
		return &machine.Result{Cycles: 7}, nil
	}
	res, err := e.Run(context.Background(), []Cell{{Spec: workload.Spec{Abbr: "a"}}}, 1)
	if err != nil {
		t.Fatalf("unbounded engine failed a slow cell: %v", err)
	}
	if res[0].Cycles != 7 {
		t.Errorf("cycles=%d, want 7", res[0].Cycles)
	}
}

func TestCellTimeoutSparesFastCells(t *testing.T) {
	e := New(2)
	e.SetCellTimeout(5 * time.Second)
	e.simulate = func(Cell) (*machine.Result, error) {
		return &machine.Result{Cycles: 3}, nil
	}
	res, err := e.Run(context.Background(), []Cell{{Spec: workload.Spec{Abbr: "a"}}}, 1)
	if err != nil {
		t.Fatalf("fast cell failed under a generous timeout: %v", err)
	}
	if res[0].Cycles != 3 {
		t.Errorf("cycles=%d, want 3", res[0].Cycles)
	}
}
