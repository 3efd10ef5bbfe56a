package campaign

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// newService spins up a coordinator with a temp store behind an
// httptest server and returns a client for it.
func newService(t *testing.T, leaseTTL time.Duration) (*Coordinator, *Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{Store: st, LeaseTTL: leaseTTL, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	return coord, NewClient(srv.URL, nil), st
}

// TestCampaignLifecycleStaticTables exercises submit/status/tables over
// the API with experiments that need no simulation (table1/table4).
func TestCampaignLifecycleStaticTables(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	ctx := context.Background()

	st, err := client.Submit(ctx, Spec{Experiments: []string{"table1", "table4"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.ExperimentsTotal != 2 {
		t.Fatalf("submit status = %+v", st)
	}

	final, err := client.Wait(ctx, st.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s, want done (errors: %v)", final.State, final.ExperimentErrors)
	}

	tables, err := client.Tables(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2", len(tables))
	}
	for _, tbl := range tables {
		if tbl.Text == "" || tbl.CSV == "" {
			t.Fatalf("table %s missing a rendering", tbl.Name)
		}
	}

	// The rendered table matches a direct in-process run byte for byte.
	direct := experiments.Table1()
	for _, tbl := range tables {
		if tbl.Name == "table1" && tbl.Text != direct.String() {
			t.Fatal("served table1 differs from a direct run")
		}
	}
}

func TestSubmitUnknownExperimentRejected(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	_, err := client.Submit(context.Background(), Spec{Experiments: []string{"fig99"}})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("err = %v, want a 400 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "unknown experiment") {
		t.Fatalf("message %q does not name the problem", apiErr.Message)
	}
}

func TestSubmitUnknownWorkloadRejected(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	_, err := client.Submit(context.Background(), Spec{Experiments: []string{"fig21"}, Workloads: []string{"nope"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("err = %v, want a 400 APIError", err)
	}
}

func TestUnknownCampaignIs404(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	_, err := client.Campaign(context.Background(), "c-nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("err = %v, want a 404 APIError", err)
	}
}

// TestCampaignWorkersEndToEnd runs a real (tiny) campaign through two
// in-process workers sharing the store and checks the tables match a
// single-process run of the same experiment.
func TestCampaignWorkersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, client, st := newService(t, time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		w := NewWorker(client, WorkerOptions{Store: st, Poll: 10 * time.Millisecond, Logf: t.Logf})
		go w.Run(wctx)
	}

	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (errors: %v)", final.State, final.ExperimentErrors)
	}
	if final.Cells.Delegated == 0 {
		t.Fatal("no cells were delegated to workers")
	}

	tables, err := client.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables, want 1", len(tables))
	}

	// Single-process reference run with an isolated engine.
	p := spec.withDefaults().params()
	p.Engine = sweep.New(0)
	ref, err := experiments.Fig9(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].Text != ref.String() {
		t.Fatalf("campaign table differs from single-process run:\n--- campaign ---\n%s--- reference ---\n%s",
			tables[0].Text, ref.String())
	}

	// A second identical campaign is served entirely from the store and
	// the engine cache: no new delegations required, same bytes.
	sub2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final2, err := client.Wait(ctx, sub2.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone {
		t.Fatalf("second campaign state = %s", final2.State)
	}
	if final2.Cells.Delegated != 0 {
		t.Fatalf("second campaign delegated %d cells; store rehydration should have served them all", final2.Cells.Delegated)
	}
	tables2, _ := client.Tables(ctx, sub2.ID)
	if tables2[0].Text != tables[0].Text {
		t.Fatal("repeated campaign produced different bytes")
	}
}

// TestStalledWorkerDoublePublish is the satellite scenario end to end: a
// worker leases a cell, stalls past the lease TTL, the cell re-leases
// and completes elsewhere, and then the stalled worker publishes anyway.
// The stored result must be neither corrupted nor duplicated and the
// campaign table must be unaffected.
func TestStalledWorkerDoublePublish(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	coord, client, st := newService(t, 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled worker takes the first cell and sits on it. Cells are
	// enqueued asynchronously after Submit returns, so poll briefly.
	var stalled Grant
	for ok := false; !ok; {
		stalled, ok, err = client.Lease(ctx, "stalled")
		if err != nil {
			t.Fatalf("stalled worker lease: %v", err)
		}
		if !ok {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Wait out the TTL so the coordinator's expiry loop requeues it.
	time.Sleep(time.Second)
	if exp := coord.Queue().Stats().Expired; exp == 0 {
		t.Fatal("stalled lease did not expire")
	}

	// Healthy workers finish the whole campaign, including the re-leased
	// cell.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	w := NewWorker(client, WorkerOptions{Store: st, Poll: 10 * time.Millisecond, Logf: t.Logf})
	go w.Run(wctx)

	final, err := client.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (errors: %v)", final.State, final.ExperimentErrors)
	}
	tablesBefore, err := client.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot the store object the stalled worker is about to re-publish.
	objPath := storedObjectPath(t, st, stalled.Digest)
	before, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatalf("published result not in store: %v", err)
	}

	// Now the stalled worker wakes up, simulates its (long-lost) cell,
	// and publishes under its expired lease.
	cell, err := stalled.cell()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Simulate(cell)
	if err != nil {
		t.Fatal(err)
	}
	attest, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	// The payload is byte-identical to the admitted one (simulations are
	// deterministic in the digest), so this is a benign duplicate — not a
	// zombie publish, not a 409.
	if err := client.Complete(ctx, Publish{Lease: stalled.Lease, Fence: stalled.Fence, Digest: stalled.Digest, ResultDigest: attest, Result: res}); err != nil {
		t.Fatalf("late publish rejected instead of no-op'd: %v", err)
	}

	// The store still holds exactly one verified entry with the same
	// digest-keyed content, and the table is unchanged.
	after, err := os.ReadFile(objPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("late publish changed the stored entry bytes")
	}
	if n := countStoreObjects(t, st, stalled.Digest); n != 1 {
		t.Fatalf("%d store entries for the digest, want 1", n)
	}
	if got, ok := st.Get(stalled.Digest); !ok || got == nil {
		t.Fatal("stored entry no longer verifies after the late publish")
	}
	if lp := coord.Queue().Stats().LatePublishes; lp != 1 {
		t.Fatalf("LatePublishes = %d, want 1", lp)
	}
	tablesAfter, err := client.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tablesAfter[0].Text != tablesBefore[0].Text {
		t.Fatal("late publish changed the campaign table")
	}
}

func TestCancelRunningCampaign(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	ctx := context.Background()

	// No workers are polling, so this campaign can never finish on its
	// own.
	sub, err := client.Submit(ctx, Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Cancel(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, sub.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("state after cancel = %s (was %s at cancel)", final.State, st.State)
	}
}

// storedObjectPath locates the store's object file for a digest.
func storedObjectPath(t *testing.T, st *store.Store, digest string) string {
	t.Helper()
	return filepath.Join(st.Dir(), "objects", digest[:2], digest+".json")
}

// countStoreObjects counts object files for the digest anywhere in the
// store (objects plus quarantine — a corrupted entry would show up
// there).
func countStoreObjects(t *testing.T, st *store.Store, digest string) int {
	t.Helper()
	n := 0
	for _, sub := range []string{"objects", "quarantine"} {
		filepath.Walk(filepath.Join(st.Dir(), sub), func(path string, info os.FileInfo, err error) error {
			if err == nil && info != nil && !info.IsDir() && strings.Contains(path, digest) {
				n++
			}
			return nil
		})
	}
	return n
}
