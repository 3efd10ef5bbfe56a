package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// ---- queue-level units: attestation, fencing, quorum ----

func TestQueueAttestationMismatchRequeues(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g, _ := q.Lease("faulty")
	pub := honestPublish(t, g, fakeResult(42))
	pub.ResultDigest = wrongDigest
	out := q.Complete(pub)
	if out.Verdict != VerdictDigestMismatch {
		t.Fatalf("wrong attestation verdict = %s, want digest mismatch", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("mis-attested publish delivered an outcome")
	default:
	}

	// The cell requeues without burning an attempt — the work is fine,
	// the publish is not.
	g2, ok := q.Lease("honest")
	if !ok {
		t.Fatal("mis-attested cell did not requeue")
	}
	if g2.Attempt != 1 {
		t.Fatalf("attempt after mis-attestation = %d, want 1", g2.Attempt)
	}
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("honest publish verdict = %s, want admitted", out.Verdict)
	}
	st := q.Stats()
	if st.DigestMismatches != 1 || st.Completed != 1 {
		t.Fatalf("DigestMismatches=%d Completed=%d, want 1/1", st.DigestMismatches, st.Completed)
	}
}

func TestQueueFenceForgeryDoesNotEvictHolder(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g, _ := q.Lease("holder")
	forged := honestPublish(t, g, fakeResult(99))
	forged.Fence = "0123456789abcdef0123456789abcdef"
	if out := q.Complete(forged); out.Verdict != VerdictFenceMismatch {
		t.Fatalf("forged-fence verdict = %s, want fence mismatch", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("forged publish delivered an outcome")
	default:
	}

	// The legitimate holder's lease survived the forgery attempt.
	if out := q.Complete(honestPublish(t, g, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("holder's publish verdict = %s, want admitted", out.Verdict)
	}
	if st := q.Stats(); st.FenceMismatches != 1 || st.Completed != 1 {
		t.Fatalf("FenceMismatches=%d Completed=%d, want 1/1", st.FenceMismatches, st.Completed)
	}
}

// Fail and Renew are fenced like a publish. Lease IDs are sequential, so
// a peer that knows a cell's digest can guess its lease; without the
// fence it must neither fail the cell for every waiter nor keep the
// lease alive, and the holder's publish is still admitted.
func TestQueueForgedFailAndRenewAreFenced(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Minute), clock)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	g, _ := q.Lease("holder")
	deadline := clock.now().Add(time.Minute)

	clock.advance(30 * time.Second)
	for _, fence := range []string{"", "0123456789abcdef0123456789abcdef"} {
		q.Fail(g.Lease, fence, digest, "forged failure")
		if err := q.Renew(g.Lease, fence); !errors.Is(err, ErrLeaseGone) {
			t.Fatalf("renew with fence %q = %v, want ErrLeaseGone", fence, err)
		}
	}
	if pending, leased := q.Depth(); pending != 0 || leased != 1 {
		t.Fatalf("depth = (%d pending, %d leased), want the cell still leased", pending, leased)
	}
	if tk := q.tasks[digest]; tk.attempts != 0 || !tk.lease.deadline.Equal(deadline) {
		t.Fatalf("attempts = %d, deadline = %v; want 0 and the grant's %v", tk.attempts, tk.lease.deadline, deadline)
	}
	select {
	case o := <-ch:
		t.Fatalf("forged failure delivered an outcome: %+v", o)
	default:
	}

	if out := q.Complete(honestPublish(t, g, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("holder's publish verdict = %s, want admitted", out.Verdict)
	}
	if o := <-ch; o.Err != nil {
		t.Fatalf("holder's completion failed: %v", o.Err)
	}
}

// The fence travels on the wire: Client.Renew and Client.Fail present
// the grant's fence, and the coordinator answers an unfenced renew with
// 410 and ignores an unfenced failure report.
func TestLeaseFenceOverHTTP(t *testing.T) {
	coord, cl, _ := newLimitedService(t, Options{})
	q := coord.Queue()
	ch := make(chan Outcome, 1)
	cell := testCell(t, 1)
	deadline := time.Now().Add(time.Hour)
	digest, _ := q.Enqueue(cell, EnqueueOptions{MaxAttempts: 1, CellTimeout: 7 * time.Second, Deadline: deadline}, ch)
	ctx := context.Background()
	g, ok, err := cl.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	// The decoded grant is the queue's grant, field for field: the lease
	// body is Grant encoded as is. Lease and Fence are checked by the
	// fenced calls below.
	if !g.Deadline.Equal(deadline) {
		t.Fatalf("grant deadline = %v, want %v", g.Deadline, deadline)
	}
	want := Grant{Lease: g.Lease, Fence: g.Fence, Digest: digest, Key: cell.Key(), Label: cell.Label,
		TTL: q.TTL(), CellTimeout: 7 * time.Second, Deadline: g.Deadline, Attempt: 1}
	if g != want {
		t.Fatalf("grant over HTTP = %+v\nwant %+v", g, want)
	}

	if err := cl.Renew(ctx, g.Lease, g.Fence); err != nil {
		t.Fatalf("fenced renew: %v", err)
	}
	var apiErr *APIError
	if err := cl.Renew(ctx, g.Lease, ""); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("unfenced renew = %v, want a 410", err)
	}
	if err := cl.Fail(ctx, g.Lease, "", digest, "forged failure"); err != nil {
		t.Fatalf("unfenced fail: %v", err)
	}
	if _, leased := q.Depth(); leased != 1 {
		t.Fatalf("leased = %d after an unfenced failure report, want 1", leased)
	}
	if err := cl.Fail(ctx, g.Lease, g.Fence, digest, "boom"); err != nil {
		t.Fatalf("fenced fail: %v", err)
	}
	select {
	case o := <-ch:
		if o.Err == nil {
			t.Fatal("fenced failure delivered no error")
		}
	default:
		t.Fatal("fenced failure with no attempts left delivered no outcome")
	}
}

// TestGrantUnknownWorkloadFailsAttempt: a grant naming a workload the
// worker's registry does not know fails like any other execution error,
// through the fenced Fail. Each such grant burns one attempt; with none
// left, the waiter receives the error.
func TestGrantUnknownWorkloadFailsAttempt(t *testing.T) {
	coord, cl, _ := newLimitedService(t, Options{})
	q := coord.Queue()
	cell := testCell(t, 1)
	cell.Spec.Abbr = "no-such-workload"
	ch := make(chan Outcome, 1)
	q.Enqueue(cell, EnqueueOptions{MaxAttempts: 2}, ch)
	w := NewWorker(cl, WorkerOptions{Name: "w1", Logf: t.Logf})
	ctx := context.Background()

	for attempt := 1; attempt <= 2; attempt++ {
		g, ok, err := cl.Lease(ctx, "w1")
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", attempt, ok, err)
		}
		if g.Attempt != attempt {
			t.Fatalf("grant attempt = %d, want %d", g.Attempt, attempt)
		}
		w.runCell(ctx, g)
		if attempt == 1 {
			if pending, leased := q.Depth(); pending != 1 || leased != 0 {
				t.Fatalf("after one failed attempt: pending=%d leased=%d, want the cell requeued", pending, leased)
			}
			select {
			case o := <-ch:
				t.Fatalf("outcome %+v delivered with an attempt left", o)
			default:
			}
		}
	}
	select {
	case o := <-ch:
		if o.Err == nil || !strings.Contains(o.Err.Error(), "no-such-workload") {
			t.Fatalf("exhausted attempts delivered %v, want the unknown-workload error", o.Err)
		}
	default:
		t.Fatal("exhausted attempts delivered no outcome")
	}
	if st := w.Stats(); st.Leased != 2 || st.Failed != 2 || st.Completed != 0 {
		t.Fatalf("worker stats = %+v, want 2 leased, 2 failed", st)
	}
	if qs := q.Stats(); qs.Failed != 1 {
		t.Fatalf("queue Failed = %d, want 1", qs.Failed)
	}
}

func TestQueueQuorumAgreementAdmits(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1) // every cell verified by 2 workers
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("w1")
	if !g1.Verify {
		t.Fatal("grant not marked for verification at fraction 1")
	}
	if out := q.Complete(honestPublish(t, g1, fakeResult(42))); out.Verdict != VerdictVoteRecorded {
		t.Fatalf("first vote verdict = %s, want vote recorded", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("outcome delivered before the quorum agreed")
	default:
	}

	// The second, independent execution agrees: admitted.
	g2, ok := q.Lease("w2")
	if !ok {
		t.Fatal("voted cell did not requeue for the second execution")
	}
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("agreeing second vote verdict = %s, want admitted", out.Verdict)
	}
	if out := <-ch; out.Err != nil || out.Res == nil {
		t.Fatalf("quorum admission delivered (%v, %v)", out.Res, out.Err)
	}
	st := q.Stats()
	if st.VerifiedCells != 1 || st.Votes != 2 || st.Completed != 1 || st.Arbitrations != 0 {
		t.Fatalf("stats = %+v, want 1 verified cell, 2 votes, 1 completion, 0 arbitrations", st)
	}
}

func TestQueueQuorumDivergenceEscalatesToArbiter(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("honest")
	honest := fakeResult(42)
	q.Complete(honestPublish(t, g1, honest))

	g2, _ := q.Lease("evil")
	out := q.Complete(honestPublish(t, g2, fakeResult(666))) // self-consistent but wrong
	if out.Verdict != VerdictNeedArbiter {
		t.Fatalf("tied quorum verdict = %s, want arbiter escalation", out.Verdict)
	}
	if out.Cell.Label == "" {
		t.Fatal("arbiter escalation carried no cell to re-execute")
	}

	// While arbitrating, the cell is not leasable.
	if _, ok := q.Lease("w3"); ok {
		t.Fatal("arbitrating cell was leased out")
	}

	// The coordinator re-executes locally and sides with the honest vote.
	honestDigest, err := ResultDigest(honest)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := q.ResolveArbiter(digest, honestDigest, honest)
	if !ok || res.Verdict != VerdictAdmitted {
		t.Fatalf("ResolveArbiter = (%+v, %v), want admitted", res, ok)
	}
	if out := <-ch; out.Err != nil {
		t.Fatalf("arbitrated admission failed: %v", out.Err)
	}

	st := q.Stats()
	if st.Arbitrations != 1 || st.DivergentVotes != 1 {
		t.Fatalf("Arbitrations=%d DivergentVotes=%d, want 1/1", st.Arbitrations, st.DivergentVotes)
	}
}

// A lone worker can never form a 2-agreeing majority with itself (latest
// vote per worker counts once); the escalation path keeps a single-worker
// fleet converging instead of deadlocking.
func TestQueueSingleWorkerQuorumConverges(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("solo")
	q.Complete(honestPublish(t, g1, fakeResult(42)))
	g2, ok := q.Lease("solo") // fallback: own-voted cells still grantable
	if !ok {
		t.Fatal("solo worker starved of its own voted cell")
	}
	out := q.Complete(honestPublish(t, g2, fakeResult(42)))
	if out.Verdict != VerdictNeedArbiter {
		t.Fatalf("solo double-vote verdict = %s, want arbiter escalation", out.Verdict)
	}
	honestDigest, _ := ResultDigest(fakeResult(42))
	if res, ok := q.ResolveArbiter(digest, honestDigest, fakeResult(42)); !ok || res.Verdict != VerdictAdmitted {
		t.Fatalf("solo arbitration = (%+v, %v), want admitted", res, ok)
	}
	if out := <-ch; out.Err != nil {
		t.Fatalf("solo convergence failed: %v", out.Err)
	}
}

func TestQueueRequeueForcesReverification(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	g, _ := q.Lease("w1")
	q.Complete(honestPublish(t, g, fakeResult(42)))
	<-ch

	cell, ok := q.Requeue(digest)
	if !ok || cell.Label == "" {
		t.Fatalf("Requeue of a done task = (%+v, %v)", cell, ok)
	}
	if _, ok := q.Requeue("feedfeed"); ok {
		t.Fatal("Requeue of an unknown digest reported ok")
	}

	// The requeued cell now demands a quorum even though the lottery
	// never selected it.
	g1, ok := q.Lease("w1")
	if !ok || !g1.Verify {
		t.Fatalf("requeued cell grant = (%+v, %v), want a verify grant", g1, ok)
	}
	if out := q.Complete(honestPublish(t, g1, fakeResult(42))); out.Verdict != VerdictVoteRecorded {
		t.Fatalf("first re-vote verdict = %s", out.Verdict)
	}
	g2, _ := q.Lease("w2")
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("second re-vote verdict = %s, want admitted", out.Verdict)
	}
	if st := q.Stats(); st.Reverifies != 1 {
		t.Fatalf("Reverifies = %d, want 1", st.Reverifies)
	}
}

// corruptingTransport rewrites every publish it carries into a wrong
// result with a self-consistent attestation: the payload's cycle count is
// perturbed and ResultDigest recomputed, so only an independent
// re-execution (the quorum or its arbiter) can tell it apart.
type corruptingTransport struct{}

func (corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/complete") {
		return http.DefaultTransport.RoundTrip(req)
	}
	var pub Publish
	err := json.NewDecoder(req.Body).Decode(&pub)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	bad := *pub.Result
	bad.Cycles = bad.Cycles*2 + 12345
	pub.Result = &bad
	if pub.ResultDigest, err = ResultDigest(&bad); err != nil {
		return nil, err
	}
	body, err := json.Marshal(pub)
	if err != nil {
		return nil, err
	}
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	req.ContentLength = int64(len(body))
	return http.DefaultTransport.RoundTrip(req)
}

// TestByzantineCampaignEndToEnd: a worker whose every publish is corrupt
// (attestations self-consistent) shares the fleet with an honest one
// under full verification. The campaign must converge to byte-identical
// tables and admit zero corrupt objects.
func TestByzantineCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	st, err := store.Open(t.TempDir(), store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{
		Store: st, LeaseTTL: time.Minute, Logf: t.Logf,
		VerifyFraction: 1,
	})
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	client := NewClient(srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	honest := NewWorker(client, WorkerOptions{Name: "honest", Store: st, Poll: 25 * time.Millisecond, Logf: t.Logf})
	go honest.Run(wctx)
	// The corrupt worker gets NO store handle: its results reach the
	// store only through the publish API, where the quorum checks them.
	evil := NewWorker(NewClient(srv.URL, &http.Client{Transport: corruptingTransport{}}), WorkerOptions{
		Name: "evil", Poll: 5 * time.Millisecond, Logf: t.Logf,
	})
	go evil.Run(wctx)

	spec := Spec{Experiments: []string{"fig9"}, Workloads: []string{"mm"}, Scale: 0.02}
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

	// Byte-identical to a single-process run: no corrupt result reached
	// the tables.
	tables, err := client.Tables(ctx, sub.ID)
	if err != nil || len(tables) != 1 {
		t.Fatalf("tables = %d (err %v), want 1", len(tables), err)
	}
	p := spec.withDefaults().params()
	p.Engine = sweep.New(0)
	ref, err := experiments.Fig9(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if tables[0].Text != ref.String() {
		t.Fatalf("corrupt-fleet table differs from single-process run:\n--- campaign ---\n%s--- reference ---\n%s",
			tables[0].Text, ref.String())
	}

	// Zero corrupt objects at rest.
	rep, err := st.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("store scrub found %d corrupt objects after the campaign: %+v", rep.Quarantined, rep.Bad)
	}

	qs := coord.Queue().Stats()
	if qs.VerifiedCells == 0 || qs.Votes < qs.VerifiedCells {
		t.Fatalf("verification did not run: %+v", qs)
	}
	if n := evil.Stats().Completed; n > 0 && qs.DivergentVotes+qs.DivergentPublishes+qs.Arbitrations == 0 {
		// The corrupt worker got votes in; its divergence must have been
		// caught.
		t.Fatalf("evil published %d corrupt results but no divergence was recorded: %+v", n, qs)
	}
}
