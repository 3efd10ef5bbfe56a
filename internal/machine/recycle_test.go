package machine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/workload"
)

// recycleCell is one cell of the storage-recycling tests.
type recycleCell struct {
	cfg    config.Config
	traces [][]workload.Op
}

// digest runs the cell on a fresh system and returns its Result as JSON.
func (c recycleCell) digest() (string, error) {
	sys, err := New(c.cfg, c.traces, RunOptions{})
	if err != nil {
		return "", err
	}
	res, err := sys.Run()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// recoveryCell is a 4-GPU Ours cell with Recovery on a lossy fabric: its
// retransmit and batch timers are still queued when the run stops.
func recoveryCell(t *testing.T) recycleCell {
	cfg := faultyConfig(4, 11)
	cfg.Scheme = config.OTPDynamic
	cfg.OTPMultiplier = 4
	cfg.Batching = true
	cfg.Recovery = true
	return recycleCell{cfg, allTraces(4, 300, 8, 3)}
}

// TestRecycledStorageIsInvisible checks that a cell's result does not
// depend on what ran before it on recycled engine slabs and cache tag
// stores. A small cell B runs, then a disturbing cell that leaves its
// storage in a different state, then B again; both B results must be
// equal field for field.
func TestRecycledStorageIsInvisible(t *testing.T) {
	cfg4, tr4 := oursCell(t, 4, 0.01)
	b := recycleCell{cfg4, tr4}
	cfg16, tr16 := oursCell(t, 16, 0.01)
	big := recycleCell{cfg16, tr16}
	recovery := recoveryCell(t)

	cancelled := func() error {
		// Cancelled at the engine's first mid-run poll, so the released
		// engine still holds live events and armed timers.
		cfg, traces := oursCell(t, 8, 0.05)
		sys, err := New(cfg, traces, RunOptions{})
		if err != nil {
			return err
		}
		ctx := &tripCtx{Context: context.Background(), trip: 2}
		if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("cancelled cell: err = %v, want context.Canceled", err)
		}
		return nil
	}
	cases := []struct {
		name    string
		cell    recycleCell
		disturb func() error
	}{
		{"big-16GPU", b, func() error { _, err := big.digest(); return err }},
		{"recovery-with-queued-timers", b, func() error { _, err := recovery.digest(); return err }},
		{"recovery-after-big", recovery, func() error { _, err := big.digest(); return err }},
		{"cancelled-mid-run", b, cancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, err := tc.cell.digest()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.disturb(); err != nil {
				t.Fatal(err)
			}
			second, err := tc.cell.digest()
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("result changed after a %s cell\nfirst:  %.300s\nsecond: %.300s", tc.name, first, second)
			}
		})
	}
}

// TestRecycledStorageParallel runs several cells at once on goroutines,
// as sweep workers do, so engines and caches hand storage to each other
// across goroutines. Every result must equal the cell's solo result.
func TestRecycledStorageParallel(t *testing.T) {
	var cells []recycleCell
	for _, gpus := range []int{4, 8, 16} {
		cfg, traces := oursCell(t, gpus, 0.01)
		cells = append(cells, recycleCell{cfg, traces})
	}
	cells = append(cells, recoveryCell(t))
	solo := make([]string, len(cells))
	for i, c := range cells {
		d, err := c.digest()
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = d
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(cells))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cells {
					i := (k + w) % len(cells)
					d, err := cells[i].digest()
					if err != nil {
						errs <- err
					} else if d != solo[i] {
						errs <- fmt.Errorf("worker %d round %d: cell %d result differs from its solo run", w, r, i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
