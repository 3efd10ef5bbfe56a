package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
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

// TestRetryExhaustionMarksFailedInJournal: a failing cell runs once. It
// is journaled failed, never done and never persisted, and a fresh engine
// on the same store (a resumed run) re-simulates it.
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
	e.simulate = func(Cell) (*machine.Result, error) { panic("deterministic crash") }
	cells := []Cell{tinyCell(t, false)}
	_, err = e.Run(context.Background(), cells, 1)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err=%v, want the recovered panic", err)
	}
	if es := e.Stats(); es.Simulated != 1 || es.Failed != 1 {
		t.Errorf("stats=%+v, want one attempt, failed", es)
	}
	j.Close()
	rep, err := store.ReplayJournal(st.JournalPath("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || len(rep.Done) != 0 {
		t.Errorf("journal done=%d failed=%d, want 0/1", len(rep.Done), len(rep.Failed))
	}
	raw, err := os.ReadFile(st.JournalPath("t1"))
	if err != nil {
		t.Fatal(err)
	}
	if failed := strings.Count(string(raw), `"t":"`+store.RecFailed+`"`); failed != 1 {
		t.Errorf("journal holds %d failed records, want exactly 1", failed)
	}
	// Nothing failed is ever persisted: a resumed engine re-runs it.
	if ss := st.Stats(); ss.Puts != 0 {
		t.Errorf("store persisted %d failed results", ss.Puts)
	}
	e2 := New(1)
	e2.SetStore(openStore(t, dir, "sim1"))
	var sims atomic.Int32
	inner := e2.simulate
	e2.simulate = func(c Cell) (*machine.Result, error) { sims.Add(1); return inner(c) }
	if _, err := e2.Run(context.Background(), cells, 1); err != nil {
		t.Fatalf("resumed engine: %v", err)
	}
	if n := sims.Load(); n != 1 {
		t.Errorf("resumed engine simulated %d cells, want 1", n)
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
