package campaign

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secmgpu/internal/store"
)

// newLimitedService spins up a coordinator with the given options (Store
// and Logf filled in) behind an httptest server.
func newLimitedService(t *testing.T, opts Options) (*Coordinator, *Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	opts.Logf = t.Logf
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = time.Minute
	}
	coord := NewCoordinator(opts)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	return coord, NewClient(srv.URL, nil), st
}

// runningSpec is a campaign that needs workers: with none polling, its
// cells sit on the queue and the campaign stays running indefinitely.
func runningSpec() Spec {
	return Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.01}
}

// TestAdmissionFloodSheds floods a -max-campaigns 1 coordinator: the
// burst is refused with 429 + Retry-After, the refusals are counted in
// healthz, and once the running campaign is gone a retry is admitted.
func TestAdmissionFloodSheds(t *testing.T) {
	coord, client, _ := newLimitedService(t, Options{MaxCampaigns: 1})
	ctx := context.Background()

	blocker, err := client.Submit(ctx, runningSpec())
	if err != nil {
		t.Fatal(err)
	}

	// A one-attempt client sees the shed directly instead of retrying it
	// away.
	fast := NewClient(strings.TrimRight(client.base, "/"), nil)
	fast.retry = RetryPolicy{Attempts: 1}
	shed := 0
	for i := 0; i < 5; i++ {
		_, err := fast.Submit(ctx, Spec{Experiments: []string{"table1"}})
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("submit %d: err = %v, want an APIError", i, err)
		}
		if apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("submit %d: status = %d, want 429", i, apiErr.Status)
		}
		if apiErr.RetryAfter <= 0 {
			t.Fatalf("submit %d: no Retry-After hint on a 429", i)
		}
		shed++
	}
	if shed != 5 {
		t.Fatalf("shed %d of 5 burst submissions", shed)
	}

	// The coordinator-level error is errors.Is-able, and healthz counts
	// every refusal.
	if _, err := coord.Submit(Spec{Experiments: []string{"table1"}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("coordinator submit err = %v, want ErrOverloaded", err)
	}
	health, err := client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.RejectedSubmissions < 6 {
		t.Fatalf("healthz rejected_submissions = %d, want >= 6", health.RejectedSubmissions)
	}

	// Free the slot and retry: the same submission is admitted and runs
	// to completion.
	coord.Cancel(blocker.ID)
	waitState(t, coord, blocker.ID, StateCanceled)
	deadline := time.Now().Add(10 * time.Second)
	var admitted Status
	for {
		admitted, err = fast.Submit(ctx, Spec{Experiments: []string{"table1"}})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission never admitted after cancel: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitState(t, coord, admitted.ID, StateDone)
}

// TestMaxQueueDepthSheds rejects submissions while the work queue
// backlog exceeds the configured depth.
func TestMaxQueueDepthSheds(t *testing.T) {
	coord, client, _ := newLimitedService(t, Options{MaxQueueDepth: 1})
	ctx := context.Background()

	if _, err := client.Submit(ctx, runningSpec()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if pending, _ := coord.Queue().Depth(); pending > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("running campaign never filled the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := coord.Submit(Spec{Experiments: []string{"table1"}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var ov *OverloadError
	if !errors.As(err, &ov) || ov.RetryAfter <= 0 {
		t.Fatalf("err = %#v, want an OverloadError with a Retry-After hint", err)
	}
}

// TestWeightedFairGrantOrdering: a high-priority campaign's few cells
// are granted ahead of a low-priority campaign's large backlog — the
// stride scheduler's 16:1 weight ratio in action.
func TestWeightedFairGrantOrdering(t *testing.T) {
	q := NewQueue(time.Minute)
	big := make(map[string]bool)
	small := make(map[string]bool)
	ch := make(chan Outcome, 64)
	for i := int64(0); i < 20; i++ {
		d, _ := q.Enqueue(testCell(t, 100+i), EnqueueOptions{
			MaxAttempts: 1, Campaign: "big", Weight: weightLow,
		}, ch)
		big[d] = true
	}
	for i := int64(0); i < 4; i++ {
		d, _ := q.Enqueue(testCell(t, 200+i), EnqueueOptions{
			MaxAttempts: 1, Campaign: "small", Weight: weightHigh,
		}, ch)
		small[d] = true
	}

	smallSeen := 0
	for i := 0; i < 6; i++ {
		g, ok := q.Lease("w1")
		if !ok {
			t.Fatalf("grant %d: queue dry with work pending", i)
		}
		if small[g.Digest] {
			smallSeen++
		}
		res := fakeResult(uint64(i + 1))
		if out := q.Complete(honestPublish(t, g, res)); out.Verdict != VerdictAdmitted {
			t.Fatalf("grant %d: verdict = %s", i, out.Verdict)
		}
	}
	if smallSeen != 4 {
		t.Fatalf("only %d of 4 high-priority cells granted within the first 6 grants", smallSeen)
	}

	// Both campaigns surface in the latency report with their weights
	// and grant counts.
	lat := q.Latencies()
	if len(lat) != 2 {
		t.Fatalf("Latencies() = %d campaigns, want 2", len(lat))
	}
	for _, l := range lat {
		switch l.Campaign {
		case "big":
			if l.Weight != weightLow || l.Grants != 2 {
				t.Fatalf("big latency entry = %+v, want weight %d, 2 grants", l, weightLow)
			}
		case "small":
			if l.Weight != weightHigh || l.Grants != 4 {
				t.Fatalf("small latency entry = %+v, want weight %d, 4 grants", l, weightHigh)
			}
		default:
			t.Fatalf("unexpected campaign %q in latency report", l.Campaign)
		}
		if l.WaitMS == nil || l.LeaseMS == nil {
			t.Fatalf("campaign %q missing histograms: %+v", l.Campaign, l)
		}
	}
}

// TestBucketFIFOGrantOrder pins the per-bucket pending FIFOs: each row
// enqueues cells and returns the order in which one worker is granted
// them.
func TestBucketFIFOGrantOrder(t *testing.T) {
	enqueue := func(t *testing.T, q *Queue, seed int64, campaign string, weight int) (string, int) {
		return q.Enqueue(testCell(t, seed), EnqueueOptions{MaxAttempts: 1, Campaign: campaign, Weight: weight}, make(chan Outcome, 1))
	}
	rows := []struct {
		name  string
		setup func(t *testing.T, q *Queue) []string
	}{
		{
			// l1, shared by "hi", leaves lo's FIFO for the tail of hi's,
			// behind h1 and h2. At equal pass, lo (created first) takes
			// the first grant.
			name: "shared cell joins the tail of a higher-weight bucket",
			setup: func(t *testing.T, q *Queue) []string {
				l1, _ := enqueue(t, q, 1, "lo", weightLow)
				l2, _ := enqueue(t, q, 2, "lo", weightLow)
				h1, _ := enqueue(t, q, 3, "hi", weightHigh)
				h2, _ := enqueue(t, q, 4, "hi", weightHigh)
				enqueue(t, q, 1, "hi", weightHigh)
				return []string{l2, h1, h2, l1}
			},
		},
		{
			name: "abandoning a mid-FIFO cell keeps its neighbours' order",
			setup: func(t *testing.T, q *Queue) []string {
				c1, _ := enqueue(t, q, 1, "c", weightNormal)
				c2, w2 := enqueue(t, q, 2, "c", weightNormal)
				c3, _ := enqueue(t, q, 3, "c", weightNormal)
				q.Abandon(c2, w2)
				c4, _ := enqueue(t, q, 4, "c", weightNormal)
				return []string{c1, c3, c4}
			},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			q := NewQueue(time.Minute)
			for i, want := range r.setup(t, q) {
				if g, ok := q.Lease("w1"); !ok || g.Digest != want {
					t.Fatalf("grant %d = %q (ok %v), want %s", i, short(g.Digest), ok, short(want))
				}
			}
			if g, ok := q.Lease("w1"); ok {
				t.Fatalf("extra grant %s", short(g.Digest))
			}
		})
	}
}

// TestGrantCarriesDeadline: a deadline enqueued with the cell rides on
// the grant so workers can bound their simulation contexts.
func TestGrantCarriesDeadline(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	dl := time.Now().Add(time.Hour).Truncate(time.Millisecond)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1, Campaign: "c", Weight: weightNormal, Deadline: dl}, ch)
	g, ok := q.Lease("w1")
	if !ok {
		t.Fatal("no grant")
	}
	if !g.Deadline.Equal(dl) {
		t.Fatalf("grant deadline = %v, want %v", g.Deadline, dl)
	}

	// A second waiter without a deadline clears it: most-lenient wins on
	// shared cells.
	ch2 := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 2), EnqueueOptions{MaxAttempts: 1, Deadline: dl}, ch2)
	q.Enqueue(testCell(t, 2), EnqueueOptions{MaxAttempts: 1}, ch2)
	g2, ok := q.Lease("w1")
	if !ok {
		t.Fatal("no grant for shared cell")
	}
	if !g2.Deadline.IsZero() {
		t.Fatalf("shared-cell deadline = %v, want none (lenient waiter wins)", g2.Deadline)
	}
}

// TestDeadlineExpiryPartialTables: a campaign whose deadline passes
// fails with the tables finished so far still available.
func TestDeadlineExpiryPartialTables(t *testing.T) {
	_, client, _ := newLimitedService(t, Options{})
	ctx := context.Background()

	// table1 is static and completes instantly; fig9 needs workers and
	// none are polling, so the deadline is what ends the campaign.
	spec := runningSpec()
	spec.Experiments = []string{"table1", "fig9"}
	spec.Deadline = 400 * time.Millisecond
	sub, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Deadline.IsZero() {
		t.Fatal("status carries no deadline")
	}

	final, err := client.Wait(ctx, sub.ID, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Fatalf("error %q does not name the deadline", final.Error)
	}

	if final.ExperimentsDone < 1 || final.ExperimentsTotal != 2 {
		t.Fatalf("partial progress = %d/%d, want >=1/2", final.ExperimentsDone, final.ExperimentsTotal)
	}
	tables, err := client.Tables(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "table1" {
		t.Fatalf("partial tables = %+v, want just table1", tables)
	}
}

// TestStreamingTablesArriveBeforeTerminal: WaitTables delivers finished
// tables exactly once each, and a full campaign streams every table.
func TestStreamingTablesArriveBeforeTerminal(t *testing.T) {
	_, client, _ := newLimitedService(t, Options{})
	ctx := context.Background()

	sub, err := client.Submit(ctx, Spec{Experiments: []string{"table1", "table4"}})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	final, err := client.WaitTables(ctx, sub.ID, 10*time.Millisecond, nil, func(tbl TableResult) {
		seen[tbl.Name]++
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s", final.State)
	}
	if len(seen) != 2 || seen["table1"] != 1 || seen["table4"] != 1 {
		t.Fatalf("streamed tables = %v, want each of table1/table4 exactly once", seen)
	}
}

// TestDrainCleanVsCrashRestart: a drained coordinator leaves a journal
// whose successor boots with CleanShutdown()==true and nothing to
// recover; a crashed one re-submits its running campaigns and reports a
// dirty boot.
func TestDrainCleanVsCrashRestart(t *testing.T) {
	ctx := context.Background()

	// Clean path: finish a campaign, drain, restart.
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
	if err := coord1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !coord1.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := coord1.Submit(Spec{Experiments: []string{"table1"}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("draining coordinator admitted a submission (err = %v)", err)
	}
	coord1.Close()

	raw, err := os.ReadFile(filepath.Join(dir, "coordinator.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"t":"drain"`) {
		t.Fatal("journal carries no drain record after a graceful drain")
	}

	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord2.Close()
	if !coord2.CleanShutdown() {
		t.Fatal("successor of a drained coordinator reports a dirty boot")
	}
	if coord2.Recovered() != 0 {
		t.Fatalf("Recovered() = %d after a clean drain with no running campaigns", coord2.Recovered())
	}

	// Crash path: a running campaign and no drain record.
	dir2 := t.TempDir()
	st3, err := store.Open(dir2, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord3 := NewCoordinator(Options{Store: st3, LeaseTTL: time.Minute, Logf: t.Logf})
	if _, err := coord3.Submit(runningSpec()); err != nil {
		t.Fatal(err)
	}
	coord3.Close() // no Drain: crash semantics

	st4, err := store.Open(dir2, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord4 := NewCoordinator(Options{Store: st4, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord4.Close()
	if coord4.CleanShutdown() {
		t.Fatal("successor of a crashed coordinator reports a clean boot")
	}
	if coord4.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want the crashed campaign back", coord4.Recovered())
	}
}

// TestDrainRefusesLeases: a draining coordinator answers lease requests
// with 503 + Retry-After.
func TestDrainRefusesLeases(t *testing.T) {
	coord, client, _ := newLimitedService(t, Options{})
	ctx := context.Background()
	// Serve bounds its drain by the lease TTL (one minute here).
	if got, want := coord.drainTimeout(), 2*time.Minute+5*time.Second; got != want {
		t.Fatalf("drain timeout = %s, want 2×TTL+5s = %s", got, want)
	}
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fast := NewClient(client.base, nil)
	fast.retry = RetryPolicy{Attempts: 1}
	_, _, err := fast.Lease(ctx, "w1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("lease err = %v, want a 503 APIError", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatal("draining 503 carries no Retry-After")
	}
}

// TestClientParsesRetryAfter: the Retry-After header of a shed response
// surfaces on the APIError for callers to honor.
func TestClientParsesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, nil)
	cl.retry = RetryPolicy{Attempts: 1}
	_, err := cl.Submit(context.Background(), Spec{Experiments: []string{"table1"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want an APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("APIError = %+v, want 429 with 7s Retry-After", apiErr)
	}
}
