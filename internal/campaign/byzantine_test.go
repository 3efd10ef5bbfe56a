package campaign

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// ---- queue-level units: attestation, fencing, quorum, reputation ----

func TestQueueAttestationMismatchRequeues(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g, _ := mustLease(t, q, "liar")
	pub := honestPublish(t, g, fakeResult(42))
	pub.ResultDigest = lieDigest(pub.ResultDigest)
	out := q.Complete(pub)
	if out.Verdict != VerdictDigestMismatch {
		t.Fatalf("lying attestation verdict = %s, want digest mismatch", out.Verdict)
	}
	select {
	case <-ch:
		t.Fatal("mis-attested publish delivered an outcome")
	default:
	}

	// The cell requeues without burning an attempt — the work is fine,
	// the publisher is not.
	g2, ok := mustLease(t, q, "honest")
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
	for _, w := range q.Workers() {
		if w.Name == "liar" && w.Divergent != 1 {
			t.Fatalf("liar divergence strikes = %d, want 1", w.Divergent)
		}
	}
}

func TestQueueFenceForgeryDoesNotEvictHolder(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g, _ := mustLease(t, q, "holder")
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

func TestQueueQuorumAgreementAdmits(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1, 2) // every cell verified by 2 workers
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := mustLease(t, q, "w1")
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
	g2, ok := mustLease(t, q, "w2")
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
	q.ConfigureVerification(1, 2)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := mustLease(t, q, "honest")
	honest := fakeResult(42)
	q.Complete(honestPublish(t, g1, honest))

	g2, _ := mustLease(t, q, "evil")
	out := q.Complete(honestPublish(t, g2, fakeResult(666))) // self-consistent but wrong
	if out.Verdict != VerdictNeedArbiter {
		t.Fatalf("tied quorum verdict = %s, want arbiter escalation", out.Verdict)
	}
	if out.Cell.Label == "" {
		t.Fatal("arbiter escalation carried no cell to re-execute")
	}

	// While arbitrating, the cell is not leasable.
	if _, ok := mustLease(t, q, "w3"); ok {
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
	for _, w := range q.Workers() {
		switch w.Name {
		case "evil":
			if w.Divergent != 1 {
				t.Fatalf("evil divergence strikes = %d, want 1", w.Divergent)
			}
		case "honest":
			if w.Divergent != 0 || w.Completed != 1 {
				t.Fatalf("honest ledger = %+v, want credit and no strikes", w)
			}
		}
	}
}

// A lone worker can never form a 2-agreeing majority with itself (latest
// vote per worker counts once); the escalation path keeps a single-worker
// fleet converging instead of deadlocking.
func TestQueueSingleWorkerQuorumConverges(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureVerification(1, 2)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := mustLease(t, q, "solo")
	q.Complete(honestPublish(t, g1, fakeResult(42)))
	g2, ok := mustLease(t, q, "solo") // fallback: own-voted cells still grantable
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
	g, _ := mustLease(t, q, "w1")
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
	g1, ok := mustLease(t, q, "w1")
	if !ok || !g1.Verify {
		t.Fatalf("requeued cell grant = (%+v, %v), want a verify grant", g1, ok)
	}
	if out := q.Complete(honestPublish(t, g1, fakeResult(42))); out.Verdict != VerdictVoteRecorded {
		t.Fatalf("first re-vote verdict = %s", out.Verdict)
	}
	g2, _ := mustLease(t, q, "w2")
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("second re-vote verdict = %s, want admitted", out.Verdict)
	}
	if st := q.Stats(); st.Reverifies != 1 {
		t.Fatalf("Reverifies = %d, want 1", st.Reverifies)
	}
}

func TestQueueReputationQuarantinesDivergentWorker(t *testing.T) {
	q := NewQueue(time.Minute)
	q.ConfigureReputation(2, 0) // two divergence strikes
	var hookWorker, hookReason string
	q.OnQuarantine(func(w, r string) { hookWorker, hookReason = w, r })

	// Two cells, two lying attestations.
	for seed := int64(1); seed <= 2; seed++ {
		ch := make(chan Outcome, 1)
		q.Enqueue(testCell(t, seed), EnqueueOptions{MaxAttempts: 1}, ch)
		g, ok, err := q.Lease("liar")
		if err != nil || !ok {
			t.Fatalf("lease %d: ok=%v err=%v", seed, ok, err)
		}
		pub := honestPublish(t, g, fakeResult(uint64(seed)))
		pub.ResultDigest = lieDigest(pub.ResultDigest)
		if out := q.Complete(pub); out.Verdict != VerdictDigestMismatch {
			t.Fatalf("lie %d verdict = %s", seed, out.Verdict)
		}
	}

	if hookWorker != "liar" || hookReason == "" {
		t.Fatalf("quarantine hook saw (%q, %q)", hookWorker, hookReason)
	}
	if _, _, err := q.Lease("liar"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined lease err = %v, want ErrWorkerQuarantined", err)
	}
	st := q.Stats()
	if st.WorkersQuarantined != 1 {
		t.Fatalf("WorkersQuarantined = %d, want 1", st.WorkersQuarantined)
	}
	// Honest workers still lease; the two lied-about cells are pending.
	if _, ok := mustLease(t, q, "honest"); !ok {
		t.Fatal("honest worker blocked by someone else's quarantine")
	}
}

func TestQueueZombieLimitQuarantinesAndDrainsLeases(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	q.ConfigureReputation(0, 1) // one zombie strike
	chA := make(chan Outcome, 1)
	chB := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, chA)
	q.Enqueue(testCell(t, 2), EnqueueOptions{MaxAttempts: 1}, chB)

	gA, _ := mustLease(t, q, "zombie")
	gB, _ := mustLease(t, q, "zombie") // second cell held concurrently
	clock.advance(2 * time.Second)
	q.ExpireLeases()
	// Re-lease cell A elsewhere so the zombie's publish hits unfinished
	// work under a dead lease.
	if _, ok := mustLease(t, q, "healthy"); !ok {
		t.Fatal("expired cell not re-leasable")
	}
	if out := q.Complete(honestPublish(t, gA, fakeResult(1))); out.Verdict != VerdictZombie {
		t.Fatalf("zombie publish verdict = %s", out.Verdict)
	}
	if _, _, err := q.Lease("zombie"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("zombie lease err = %v, want ErrWorkerQuarantined", err)
	}
	// Both of the zombie's leases are gone (B was already expired; either
	// way a later publish under it is fenced).
	if out := q.Complete(honestPublish(t, gB, fakeResult(2))); out.Verdict != VerdictZombie {
		t.Fatalf("drained-lease publish verdict = %s, want zombie", out.Verdict)
	}
}

func TestParseByzantineSpec(t *testing.T) {
	spec, err := ParseByzantineSpec("seed=3,corrupt=0.6,lie=0.2,zombie=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 3 || spec.Corrupt != 0.6 || spec.Lie != 0.2 || spec.Zombie != 0.1 {
		t.Fatalf("spec = %+v", spec)
	}
	if !spec.Enabled() {
		t.Fatal("non-zero spec not enabled")
	}
	if empty, err := ParseByzantineSpec(""); err != nil || empty.Enabled() {
		t.Fatalf("empty spec = (%+v, %v)", empty, err)
	}
	for _, bad := range []string{"corrupt=2", "corrupt=-0.1", "corupt=0.5", "corrupt", "seed=x"} {
		if _, err := ParseByzantineSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
	// The injector consumes one draw per cell regardless of outcome.
	b := newByzantine(ByzantineSpec{Seed: 7, Corrupt: 0.5, Lie: 0.25})
	for i := 0; i < 100; i++ {
		b.draw()
	}
	bs := b.Stats()
	if bs.Cells != 100 || bs.Injected() == 0 || bs.Injected() == 100 {
		t.Fatalf("injector stats = %+v, want a mixed sequence over 100 cells", bs)
	}
}

// ---- worker / coordinator integration ----

func TestWorkerRunExitsOnQuarantine(t *testing.T) {
	coord, client, _ := newService(t, time.Minute)
	coord.Queue().QuarantineWorker("pariah", "operator action")

	w := NewWorker(client, WorkerOptions{Name: "pariah", Poll: 5 * time.Millisecond, Logf: t.Logf})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.Run(ctx)
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("Run = %v, want ErrWorkerQuarantined", err)
	}
	if ctx.Err() != nil {
		t.Fatal("worker polled until the deadline instead of treating the 403 as terminal")
	}
}

func TestQuarantineSurvivesCoordinatorRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(Options{Store: st, LeaseTTL: time.Minute, Logf: t.Logf})

	ch := make(chan Outcome, 1)
	q := coord.Queue()
	q.ConfigureReputation(1, 16)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	g, ok, err := q.Lease("evil")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	res := fakeResult(9)
	attest, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	// One lying attestation at limit 1: quarantined, and the quarantine
	// is journaled through the coordinator's hook.
	out := coord.Complete(g.Lease, g.Fence, digest, g.Cell.Label, lieDigest(attest), res)
	if out.Verdict != VerdictDigestMismatch {
		t.Fatalf("verdict = %s, want digest mismatch", out.Verdict)
	}
	if _, _, err := q.Lease("evil"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("pre-restart lease err = %v", err)
	}
	coord.Close()

	st2, err := store.Open(dir, store.Options{SimDigest: "test-sim"})
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(Options{Store: st2, LeaseTTL: time.Minute, Logf: t.Logf})
	defer coord2.Close()
	if _, _, err := coord2.Queue().Lease("evil"); !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("post-restart lease err = %v, want ErrWorkerQuarantined (quarantine lost across restart)", err)
	}
}

// TestByzantineCampaignEndToEnd is the tentpole scenario: an actively
// malicious worker (every result corrupted, attestations self-consistent)
// shares the fleet with an honest one under full verification. The
// campaign must converge to byte-identical tables, admit zero poisoned
// objects, and quarantine the attacker if it ever got a vote in.
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
		VerifyFraction: 1, VerifyQuorum: 2,
	})
	coord.Queue().ConfigureReputation(1, 16)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { srv.Close(); coord.Close() })
	client := NewClient(srv.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	honest := NewWorker(client, WorkerOptions{Name: "honest", Store: st, Poll: 25 * time.Millisecond, Logf: t.Logf})
	go honest.Run(wctx)
	// The byzantine worker gets NO store handle: a malicious process
	// inside the store's trust boundary could poison objects directly —
	// the defense boundary is the publish API.
	evil := NewWorker(client, WorkerOptions{
		Name: "evil", Poll: 5 * time.Millisecond,
		Byzantine: ByzantineSpec{Seed: 3, Corrupt: 1},
		Logf:      t.Logf,
	})
	evilDone := make(chan error, 1)
	go func() { evilDone <- evil.Run(wctx) }()

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

	// Byte-identical to a single-process run: zero poison reached the
	// tables.
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
		t.Fatalf("byzantine-fleet table differs from single-process run:\n--- campaign ---\n%s--- reference ---\n%s",
			tables[0].Text, ref.String())
	}

	// Zero poisoned objects at rest.
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
	if evil.Stats().Completed > 0 {
		// The attacker got votes in; its divergence must have been caught
		// and punished.
		if qs.DivergentVotes+qs.DivergentPublishes+qs.Arbitrations == 0 {
			t.Fatalf("evil published %d corrupt results but no divergence was recorded: %+v",
				evil.Stats().Completed, qs)
		}
		health, err := client.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if health.Quarantined == 0 {
			t.Fatalf("evil voted but was not quarantined: workers = %+v", health.Workers)
		}
		wcancel()
		select {
		case err := <-evilDone:
			if !errors.Is(err, ErrWorkerQuarantined) && !errors.Is(err, context.Canceled) {
				t.Fatalf("evil worker Run = %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("evil worker did not exit")
		}
	}
}
