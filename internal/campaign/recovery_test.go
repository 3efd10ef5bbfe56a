package campaign

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// TestControlLogReplay reconstructs coordinator state from a hand-written
// journal: terminal and cancelled campaigns are final, the rest come back.
func TestControlLogReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.jsonl")
	ctl, err := store.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	spec := Spec{Experiments: []string{"table1"}}
	appendRec := func(typ string, v any) {
		t.Helper()
		if err := ctl.Append(typ, v); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(ctlSubmit, ctlSubmitRec{ID: "c20260101-000000-0001", Key: "k1", Spec: spec, Created: now})
	appendRec(ctlTerminal, ctlTerminalRec{ID: "c20260101-000000-0001", State: StateDone, At: now})
	appendRec(ctlSubmit, ctlSubmitRec{ID: "c20260101-000000-0002", Spec: spec, Created: now})
	appendRec(ctlCancel, ctlCancelRec{ID: "c20260101-000000-0002", At: now})
	appendRec(ctlSubmit, ctlSubmitRec{ID: "c20260101-000000-0003", Spec: spec, Created: now})
	appendRec(ctlSubmit, ctlSubmitRec{ID: "c20260101-000000-0007", Spec: spec, Created: now})
	appendRec(ctlTerminal, ctlTerminalRec{ID: "c20260101-000000-0007", State: StateFailed, Error: "boom", At: now})
	ctl.Close()

	rep, err := replayControlLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.corrupt != 0 {
		t.Fatalf("%d corrupt records in a clean journal", rep.corrupt)
	}
	if len(rep.order) != 4 {
		t.Fatalf("%d campaigns on record, want 4", len(rep.order))
	}
	resub := rep.resubmit()
	if len(resub) != 1 || resub[0].ID != "c20260101-000000-0003" {
		t.Fatalf("resubmit set = %+v, want only campaign 0003", resub)
	}
	if got := rep.maxSeq(); got != 7 {
		t.Fatalf("maxSeq = %d, want 7", got)
	}
	if rep.byID["c20260101-000000-0007"].terminal.Error != "boom" {
		t.Fatal("terminal error not replayed")
	}
}

// TestReplayMissingJournalIsCleanBoot: a coordinator on a fresh store has
// nothing to recover and says so.
func TestReplayMissingJournalIsCleanBoot(t *testing.T) {
	rep, err := replayControlLog(filepath.Join(t.TempDir(), "coordinator.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.order) != 0 || len(rep.resubmit()) != 0 || rep.maxSeq() != 0 {
		t.Fatalf("fresh boot replayed state: %+v", rep)
	}
}

// TestLegacyQuarantineRecordIgnored: a control journal from a coordinator
// that still quarantined workers holds "quarantine" records. Replay skips
// them as an unknown type, the boot is clean, and the named worker leases
// and completes a cell like any other.
func TestLegacyQuarantineRecordIgnored(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := store.OpenLog(st.ControlLogPath())
	if err != nil {
		t.Fatal(err)
	}
	legacy := map[string]any{"worker": "evil", "reason": "published a result diverging from the admitted value", "at": time.Now().UTC()}
	if err := ctl.Append("quarantine", legacy); err != nil {
		t.Fatal(err)
	}
	ctl.Close()

	rep, err := replayControlLog(st.ControlLogPath())
	if err != nil {
		t.Fatal(err)
	}
	if rep.corrupt != 0 || len(rep.order) != 0 || len(rep.resubmit()) != 0 {
		t.Fatalf("legacy journal replayed state: %+v", rep)
	}

	coord := NewCoordinator(Options{Store: st, LeaseTTL: time.Minute, Logf: t.Logf})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	client := NewClient(srv.URL, nil)
	if coord.Recovered() != 0 || len(coord.Campaigns()) != 0 {
		t.Fatalf("legacy journal recovered %d campaign(s), %d on record", coord.Recovered(), len(coord.Campaigns()))
	}

	ch := make(chan Outcome, 1)
	coord.Queue().Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	ctx := context.Background()
	g, ok, err := client.Lease(ctx, "evil")
	if err != nil || !ok {
		t.Fatalf("lease as evil: ok=%v err=%v", ok, err)
	}
	res := fakeResult(42)
	attest, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Complete(ctx, Publish{Lease: g.Lease, Fence: g.Fence, Digest: g.Digest, ResultDigest: attest, Result: res}); err != nil {
		t.Fatalf("complete as evil: %v", err)
	}
	if o := <-ch; o.Err != nil || o.Res == nil || o.Res.Cycles != res.Cycles {
		t.Fatalf("evil's cell delivered (%+v, %v), want its result", o.Res, o.Err)
	}
}

// TestRestartTombstonesFinishedCampaigns: terminal campaigns survive a
// restart as queryable tombstones and are not re-executed.
func TestRestartTombstonesFinishedCampaigns(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(Options{Store: st1, LeaseTTL: time.Minute, Logf: t.Logf})
	sub, err := coord1.Submit(Spec{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, coord1, sub.ID, StateDone)
	coord1.Close()

	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord2.Close()
	if coord2.Recovered() != 0 {
		t.Fatalf("Recovered() = %d for a store with only finished campaigns", coord2.Recovered())
	}
	got, ok := coord2.Campaign(sub.ID)
	if !ok {
		t.Fatalf("finished campaign %s forgotten across restart", sub.ID)
	}
	if got.State != StateDone || !got.Recovered {
		t.Fatalf("tombstone = %+v, want done+recovered", got)
	}
	// A new submission must not collide with the journaled ID sequence.
	again, err := coord2.Submit(Spec{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == sub.ID {
		t.Fatalf("new campaign reused journaled ID %s", sub.ID)
	}
}

// TestRestartRemembersExplicitCancel: a Cancel journaled before the crash
// stays cancelled — replay must not resurrect it.
func TestRestartRemembersExplicitCancel(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(Options{Store: st1, LeaseTTL: time.Minute, Logf: t.Logf})
	// No workers poll this coordinator, so the campaign stays running
	// until cancelled.
	sub, err := coord1.Submit(Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := coord1.Cancel(sub.ID); !ok {
		t.Fatal("cancel failed")
	}
	coord1.Close()

	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord2.Close()
	if coord2.Recovered() != 0 {
		t.Fatalf("Recovered() = %d, cancelled campaign resurrected", coord2.Recovered())
	}
	got, ok := coord2.Campaign(sub.ID)
	if !ok || got.State != StateCanceled {
		t.Fatalf("cancelled campaign after restart: %+v (ok=%v)", got, ok)
	}
}

// legacyControlLog is a control journal written by older builds: the
// first submitted spec carries "sim_workers" (a build with a selectable
// simulation kernel), the second "store" (a build whose Spec named a
// store directory). This build has neither field.
const legacyControlLog = `{"t":"submit","d":{"id":"c20260101-000000-0001","spec":{"experiments":["table1"],"sim_workers":8},"created":"2026-01-01T00:00:00Z"},"c":"a16741764d797654"}
{"t":"submit","d":{"id":"c20260101-000000-0002","spec":{"experiments":["table1"],"store":"results/store"},"created":"2026-01-01T00:00:01Z"},"c":"fbd88c6e0d062737"}
`

// TestRestartRecoversLegacySpec: campaigns journaled with retired spec
// fields still pass their checksums, are re-submitted at boot, and
// finish.
func TestRestartRecoversLegacySpec(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.ControlLogPath(), []byte(legacyControlLog), 0o644); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{Store: st, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord.Close()
	if coord.Recovered() != 2 {
		t.Fatalf("Recovered() = %d, want both legacy campaigns back", coord.Recovered())
	}
	for _, id := range []string{"c20260101-000000-0001", "c20260101-000000-0002"} {
		waitState(t, coord, id, StateDone)
		got, _ := coord.Campaign(id)
		if !got.Recovered || len(got.Spec.Experiments) != 1 || got.Spec.Experiments[0] != "table1" {
			t.Fatalf("recovered campaign = %+v", got)
		}
	}
}

// swapHandler lets one live httptest server change coordinators mid-test,
// modelling a restart on a stable address.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// downHandler answers like a dead coordinator's load balancer: 503s.
var downHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte(`{"error":"coordinator down"}`))
})

// TestCoordinatorRestartRecovers is the crash-tolerance tentpole end to
// end: a coordinator dies mid-campaign with live workers attached, a
// successor replays the control journal on the same store, the workers
// ride out the outage on the client's retries and their poll loop, and the campaign finishes with tables
// byte-identical to a single-process run — without re-executing the cells
// that were already persisted.
func TestCoordinatorRestartRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(Options{Store: st1, LeaseTTL: time.Second, Logf: t.Logf})
	// The first published cell stages the crash: once coord1 has admitted
	// it, the address answers 503 (workers see an outage, not a vanished
	// host), so the other cells cannot finish the campaign before the
	// coordinator dies. At most one more publish can be in flight with
	// two workers, which leaves cells to recover.
	h1 := coord1.Handler()
	crashed := make(chan struct{})
	var stage sync.Once
	sh := &swapHandler{}
	sh.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h1.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/complete") {
			stage.Do(func() {
				sh.set(downHandler)
				close(crashed)
			})
		}
	}))
	srv := httptest.NewServer(sh)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	client := NewClient(srv.URL, nil)
	client.retry = fastRetry()

	// Workers keep their own handle on the shared store, as separate
	// processes would; they outlive the coordinator.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for i := 0; i < 2; i++ {
		w := NewWorker(client, WorkerOptions{Store: st1, Poll: 10 * time.Millisecond, Logf: t.Logf})
		go w.Run(wctx)
	}

	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let real work land in the store before pulling the plug.
	select {
	case <-crashed:
	case <-time.After(time.Minute):
		t.Fatal("no cell completed within a minute")
	}

	// Crash: the first coordinator is torn down without journaling any
	// outcome.
	coord1.Close()

	// Give the workers a beat inside the outage so their lease calls fail.
	time.Sleep(50 * time.Millisecond)

	// Restart: a new process opens the same store and replays the journal.
	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Second, Logf: t.Logf})
	defer coord2.Close()
	if got := coord2.Recovered(); got != 1 {
		t.Fatalf("Recovered() = %d, want 1", got)
	}
	sh.set(coord2.Handler())

	final, err := client.Wait(ctx, sub.ID, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state after recovery = %s (errors: %v)", final.State, final.ExperimentErrors)
	}
	if !final.Recovered {
		t.Fatal("recovered campaign not flagged as recovered")
	}
	if final.Cells.StoreHits == 0 {
		t.Fatal("recovery re-executed everything: no store hits for pre-crash cells")
	}

	// Health reports the replay — the evidence a probe can assert on.
	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Recovered != 1 {
		t.Fatalf("healthz recovered = %d, want 1", health.Recovered)
	}
	if len(health.Progress) == 0 {
		t.Fatal("healthz reports no campaign progress")
	}
	foundCampaign := false
	for _, p := range health.Progress {
		if p.ID == sub.ID && p.State == StateDone {
			foundCampaign = true
		}
	}
	if !foundCampaign {
		t.Fatalf("healthz progress %+v does not show campaign %s done", health.Progress, sub.ID)
	}

	// The decisive check: tables byte-identical to a clean single-process
	// run of the same spec.
	tables, err := client.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	p := spec.withDefaults().params()
	p.Engine = sweep.New(0)
	ref, err := experiments.Fig9(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Text != ref.String() {
		var got string
		if len(tables) == 1 {
			got = tables[0].Text
		}
		t.Fatalf("recovered campaign table differs from single-process run:\n--- recovered ---\n%s--- reference ---\n%s",
			got, ref.String())
	}
}

// TestHealthSurface: the liveness endpoint carries queue depth and
// per-campaign progress.
func TestHealthSurface(t *testing.T) {
	_, client, _ := newService(t, time.Minute)
	ctx := context.Background()

	sub, err := client.Submit(ctx, Spec{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, sub.ID, 10*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	h, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Campaigns != 1 {
		t.Fatalf("health = %+v", h)
	}
	if len(h.Progress) != 1 || h.Progress[0].ID != sub.ID || h.Progress[0].State != StateDone {
		t.Fatalf("health progress = %+v", h.Progress)
	}
	if h.Pending != 0 || h.Leased != 0 {
		t.Fatalf("idle coordinator reports pending=%d leased=%d", h.Pending, h.Leased)
	}
}

// waitState polls a coordinator directly until the campaign reaches state.
func waitState(t *testing.T, c *Coordinator, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, ok := c.Campaign(id)
		if ok && st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %s (now %+v)", id, want, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
