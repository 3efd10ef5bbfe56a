package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"secmgpu/internal/machine"
	"secmgpu/internal/store"
)

func openStore(t *testing.T, dir, simDigest string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{SimDigest: simDigest})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRehydratesAcrossEngines(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{tinyCell(t, false), tinyCell(t, true)}

	e1 := New(2)
	e1.SetStore(openStore(t, dir, "sim1"))
	var sims atomic.Int32
	inner := e1.simulate
	e1.simulate = func(c Cell) (*machine.Result, error) { sims.Add(1); return inner(c) }
	first, err := e1.Run(context.Background(), cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("first engine simulated %d cells, want 2", n)
	}

	// A fresh engine — a restarted process — must serve both cells from
	// disk without simulating anything.
	e2 := New(2)
	e2.SetStore(openStore(t, dir, "sim1"))
	e2.simulate = func(c Cell) (*machine.Result, error) {
		t.Errorf("cell %s re-simulated despite a persisted result", c.label())
		return nil, fmt.Errorf("unexpected simulation")
	}
	second, err := e2.Run(context.Background(), cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Errorf("cell %d: rehydrated result differs from the simulated one", i)
		}
	}
	st := e2.Stats()
	if st.StoreHits != 2 || st.Simulated != 0 {
		t.Errorf("stats=%+v, want 2 store hits and 0 simulations", st)
	}
}

func TestChangedBinaryInvalidatesPersistedResults(t *testing.T) {
	dir := t.TempDir()
	cells := []Cell{tinyCell(t, false)}

	e1 := New(1)
	e1.SetStore(openStore(t, dir, "old-binary"))
	if _, err := e1.Run(context.Background(), cells, 1); err != nil {
		t.Fatal(err)
	}

	rebuilt := openStore(t, dir, "new-binary")
	e2 := New(1)
	e2.SetStore(rebuilt)
	var sims atomic.Int32
	inner := e2.simulate
	e2.simulate = func(c Cell) (*machine.Result, error) { sims.Add(1); return inner(c) }
	if _, err := e2.Run(context.Background(), cells, 1); err != nil {
		t.Fatal(err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("rebuilt binary simulated %d cells, want 1 (stale entry must not be reused)", n)
	}
	if ss := rebuilt.Stats(); ss.Quarantined != 1 {
		t.Errorf("store stats=%+v, want 1 quarantined", ss)
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "sim1")
	j, err := store.CreateJournal(st.JournalPath("t1"), store.RunInfo{ID: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetStore(st)
	e.SetJournal(j)
	e.SetRetry(2, 0)
	var calls atomic.Int32
	e.simulate = func(Cell) (*machine.Result, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("transient fault")
		}
		return &machine.Result{Cycles: 9}, nil
	}
	res, err := e.Run(context.Background(), []Cell{tinyCell(t, false)}, 1)
	if err != nil {
		t.Fatalf("cell failed despite retry budget: %v", err)
	}
	if res[0].Cycles != 9 {
		t.Errorf("cycles=%d, want 9", res[0].Cycles)
	}
	es := e.Stats()
	if es.Retries != 2 || es.Simulated != 3 || es.Failed != 2 {
		t.Errorf("stats=%+v, want 2 retries / 3 attempts / 2 failures", es)
	}
	j.Close()
	rep, err := store.ReplayJournal(st.JournalPath("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Done) != 1 || len(rep.Failed) != 0 {
		t.Errorf("journal done=%d failed=%d, want 1/0 (success clears earlier attempts)", len(rep.Done), len(rep.Failed))
	}
}

func TestRetryExhaustionMarksFailedInJournal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "sim1")
	j, err := store.CreateJournal(st.JournalPath("t1"), store.RunInfo{ID: "t1"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetStore(st)
	e.SetJournal(j)
	e.SetRetry(1, 0)
	e.simulate = func(Cell) (*machine.Result, error) { panic("deterministic crash") }
	_, err = e.Run(context.Background(), []Cell{tinyCell(t, false)}, 1)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err=%v, want the recovered panic", err)
	}
	if es := e.Stats(); es.Simulated != 2 || es.Failed != 2 {
		t.Errorf("stats=%+v, want 2 attempts both failed", es)
	}
	j.Close()
	rep, err := store.ReplayJournal(st.JournalPath("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || len(rep.Done) != 0 {
		t.Errorf("journal done=%d failed=%d, want 0/1", len(rep.Done), len(rep.Failed))
	}
	for _, m := range rep.Failed {
		if m.Attempt != 2 {
			t.Errorf("final failed attempt=%d, want 2", m.Attempt)
		}
	}
	// Nothing failed is ever persisted: a resumed engine re-runs it.
	if ss := st.Stats(); ss.Puts != 0 {
		t.Errorf("store persisted %d failed results", ss.Puts)
	}
}

func TestHeapWatermarkShedsPersistedEntries(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "sim1")
	e := New(1)
	e.SetStore(st)
	e.SetHeapWatermark(1) // any live heap exceeds this
	cells := make([]Cell, 3)
	for i := range cells {
		c := tinyCell(t, false)
		c.Cfg.Seed = int64(i + 1)
		cells[i] = c
	}
	if _, err := e.Run(context.Background(), cells, 1); err != nil {
		t.Fatal(err)
	}
	es := e.Stats()
	if es.Shed == 0 {
		t.Error("no entries shed under a 1-byte watermark")
	}
	e.mu.Lock()
	remaining := len(e.cache)
	e.mu.Unlock()
	if remaining != 0 {
		t.Errorf("%d persisted entries still cached after shedding", remaining)
	}

	// Shed cells degrade to store reads, not re-simulation.
	e.simulate = func(c Cell) (*machine.Result, error) {
		t.Errorf("cell %s re-simulated after shedding", c.label())
		return nil, fmt.Errorf("unexpected simulation")
	}
	if _, err := e.Run(context.Background(), cells, 1); err != nil {
		t.Fatal(err)
	}
	if es := e.Stats(); es.StoreHits != 3 {
		t.Errorf("stats=%+v, want 3 store hits on the second pass", es)
	}
}

func TestWatermarkWithoutStoreShedsNothing(t *testing.T) {
	e := New(1)
	e.SetHeapWatermark(1)
	if _, err := e.Run(context.Background(), []Cell{tinyCell(t, false)}, 1); err != nil {
		t.Fatal(err)
	}
	if es := e.Stats(); es.Shed != 0 {
		t.Errorf("shed %d entries with no store attached", es.Shed)
	}
	// The result is still served from memory.
	var sims atomic.Int32
	e.simulate = func(Cell) (*machine.Result, error) { sims.Add(1); return &machine.Result{}, nil }
	if _, err := e.Run(context.Background(), []Cell{tinyCell(t, false)}, 1); err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 0 {
		t.Error("cached cell re-simulated")
	}
}

func TestKeyDigestStability(t *testing.T) {
	a := tinyCell(t, true)
	b := tinyCell(t, true)
	if a.Key().Digest() != b.Key().Digest() {
		t.Error("identical cells digest differently")
	}
	c := tinyCell(t, true)
	c.Cfg.Seed = 2
	if a.Key().Digest() == c.Key().Digest() {
		t.Error("different configs collide")
	}
	d := tinyCell(t, true)
	d.Opt = machine.RunOptions{TraceInterval: 10000}
	if a.Key().Digest() != d.Key().Digest() {
		t.Error("canonically equal options digest differently")
	}
}
