package campaign

import (
	"testing"
	"time"

	"secmgpu/internal/config"
	"secmgpu/internal/machine"
	"secmgpu/internal/sim"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// testCell returns a small deterministic cell; vary seed to vary the
// digest.
func testCell(t testing.TB, seed int64) sweep.Cell {
	t.Helper()
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(4)
	cfg.Scale = 0.01
	cfg.Seed = seed
	return sweep.Cell{Spec: spec, Cfg: cfg, Label: "mm test"}
}

// fakeResult is a placeholder result for queue-level tests (the queue
// never inspects results).
func fakeResult(cycles uint64) *machine.Result {
	return &machine.Result{Cycles: sim.Cycle(cycles)}
}

// wrongDigest is a well-formed attestation that matches no payload.
const wrongDigest = "00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff"

// fakeClock is an injectable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) advance(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(q *Queue, c *fakeClock) *Queue { q.now = c.now; return q }

// honestPublish builds the publish an honest worker (and a faithful
// coordinator transport) would produce for res under grant g: the
// attested digest and the canonical digest agree.
func honestPublish(t *testing.T, g Grant, res *machine.Result) Publish {
	t.Helper()
	d, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	return Publish{
		Lease: g.Lease, Fence: g.Fence, Digest: g.Digest,
		ResultDigest: d, Canonical: d, Result: res,
	}
}

func TestQueueLeaseCompleteDelivers(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g, ok := q.Lease("w1")
	if !ok {
		t.Fatal("no grant for a pending task")
	}
	if g.Digest != digest {
		t.Fatalf("granted %s, enqueued %s", g.Digest, digest)
	}
	if g.Attempt != 1 {
		t.Fatalf("attempt = %d, want 1", g.Attempt)
	}
	if g.Fence == "" {
		t.Fatal("grant carries no fencing token")
	}

	res := fakeResult(42)
	if out := q.Complete(honestPublish(t, g, res)); out.Verdict != VerdictAdmitted {
		t.Fatalf("honest publish verdict = %s, want admitted", out.Verdict)
	}
	select {
	case out := <-ch:
		if out.Err != nil || out.Res != res {
			t.Fatalf("outcome = (%v, %v), want the published result", out.Res, out.Err)
		}
	default:
		t.Fatal("no outcome delivered after Complete")
	}
	if st := q.Stats(); st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", st.Completed)
	}
}

func TestQueueLeaseExpiryRequeues(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	if _, ok := q.Lease("w1"); !ok {
		t.Fatal("no grant")
	}
	if _, ok := q.Lease("w2"); ok {
		t.Fatal("leased task granted twice while the lease is live")
	}

	clock.advance(2 * time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}

	g2, ok := q.Lease("w2")
	if !ok {
		t.Fatal("expired task not re-leased")
	}
	if g2.Digest != digest {
		t.Fatalf("re-leased %s, want %s", g2.Digest, digest)
	}
	// Expiry burns no attempt: the first worker may be slow, not broken.
	if g2.Attempt != 1 {
		t.Fatalf("attempt after expiry = %d, want 1", g2.Attempt)
	}
	if st := q.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

// TestQueueLatePublishIsNoOp is the heart of the failure model: a worker
// that stalls past its lease TTL and publishes after the cell was
// re-leased and completed elsewhere must not corrupt or duplicate
// anything.
func TestQueueLatePublishIsNoOp(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("stalled")
	clock.advance(2 * time.Second) // stalled worker sleeps past its TTL

	g2, ok := q.Lease("healthy")
	if !ok {
		t.Fatal("expired task not re-leased")
	}
	resHealthy := fakeResult(42)
	q.Complete(honestPublish(t, g2, resHealthy))

	out := <-ch
	if out.Res != resHealthy {
		t.Fatal("waiter did not receive the healthy worker's result")
	}

	// The stalled worker wakes up and publishes the (identical, because
	// simulations are deterministic in the digest) result late: a benign
	// duplicate, not a zombie publish.
	if out := q.Complete(honestPublish(t, g1, fakeResult(42))); out.Verdict != VerdictDuplicate {
		t.Fatalf("identical late publish verdict = %s, want duplicate", out.Verdict)
	}

	select {
	case <-ch:
		t.Fatal("late publish delivered a second outcome")
	default:
	}
	st := q.Stats()
	if st.LatePublishes != 1 {
		t.Fatalf("LatePublishes = %d, want 1", st.LatePublishes)
	}
	if st.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (late publish must not double-count)", st.Completed)
	}
	if st.ZombiePublishes != 0 {
		t.Fatalf("ZombiePublishes = %d, want 0 (an honest duplicate is not a zombie)", st.ZombiePublishes)
	}
}

// A publish under an expired lease on unfinished work is fenced off as a
// zombie: the re-leased worker owns the cell now, and admitting the
// zombie's payload would let a stalled (or malicious) worker race the
// legitimate holder.
func TestQueueZombiePublishFencedOff(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("stalled")
	clock.advance(2 * time.Second)
	g2, _ := q.Lease("healthy")

	// The stalled worker publishes first, under its dead lease.
	out := q.Complete(honestPublish(t, g1, fakeResult(42)))
	if out.Verdict != VerdictZombie {
		t.Fatalf("dead-lease publish verdict = %s, want zombie", out.Verdict)
	}
	if out.Worker != "stalled" {
		t.Fatalf("zombie attributed to %q, want the stalled worker", out.Worker)
	}
	select {
	case <-ch:
		t.Fatal("fenced zombie publish delivered an outcome")
	default:
	}

	// The legitimate leaseholder completes normally.
	if out := q.Complete(honestPublish(t, g2, fakeResult(42))); out.Verdict != VerdictAdmitted {
		t.Fatalf("leaseholder publish verdict = %s, want admitted", out.Verdict)
	}
	if o := <-ch; o.Err != nil {
		t.Fatalf("leaseholder completion failed: %v", o.Err)
	}
	st := q.Stats()
	if st.Completed != 1 || st.ZombiePublishes != 1 {
		t.Fatalf("Completed=%d ZombiePublishes=%d, want 1/1", st.Completed, st.ZombiePublishes)
	}
}

func TestQueueFailRetriesThenDelivers(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 2}, ch) // 1 retry

	g1, _ := q.Lease("w1")
	q.Fail(g1.Lease, g1.Fence, digest, "boom")
	select {
	case <-ch:
		t.Fatal("failure delivered with attempts remaining")
	default:
	}

	g2, ok := q.Lease("w1")
	if !ok {
		t.Fatal("failed task not requeued within its attempt budget")
	}
	if g2.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", g2.Attempt)
	}
	q.Fail(g2.Lease, g2.Fence, digest, "boom again")
	out := <-ch
	if out.Err == nil {
		t.Fatal("exhausted task delivered no error")
	}
	if st := q.Stats(); st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
}

func TestQueueStaleFailIgnored(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)

	g1, _ := q.Lease("w1")
	clock.advance(2 * time.Second)
	g2, _ := q.Lease("w2")

	// w1's failure report arrives under its expired lease: ignored, no
	// attempt burned, w2's lease untouched.
	q.Fail(g1.Lease, g1.Fence, digest, "late failure")
	// A failure naming another cell than its lease's is ignored too.
	q.Fail(g2.Lease, g2.Fence, testCell(t, 2).Key().Digest(), "wrong cell")
	select {
	case <-ch:
		t.Fatal("stale failure delivered an outcome")
	default:
	}
	if err := q.Renew(g2.Lease, g2.Fence); err != nil {
		t.Fatalf("w2's lease lost to a stray failure: %v", err)
	}
	q.Complete(honestPublish(t, g2, fakeResult(1)))
	if out := <-ch; out.Err != nil {
		t.Fatalf("healthy completion failed: %v", out.Err)
	}
}

func TestQueueDedupAcrossEnqueues(t *testing.T) {
	q := NewQueue(time.Minute)
	ch1 := make(chan Outcome, 1)
	ch2 := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch1)
	d2, _ := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch2)
	if digest != d2 {
		t.Fatal("identical cells got different digests")
	}
	if st := q.Stats(); st.Enqueued != 1 || st.Deduped != 1 {
		t.Fatalf("Enqueued=%d Deduped=%d, want 1/1", st.Enqueued, st.Deduped)
	}

	g, _ := q.Lease("w1")
	q.Complete(honestPublish(t, g, fakeResult(7)))
	if out := <-ch1; out.Res == nil {
		t.Fatal("first waiter missed the result")
	}
	if out := <-ch2; out.Res == nil {
		t.Fatal("second waiter missed the result")
	}

	// A third enqueue after completion delivers immediately.
	ch3 := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch3)
	select {
	case out := <-ch3:
		if out.Res == nil {
			t.Fatal("done task delivered no result")
		}
	default:
		t.Fatal("done task did not deliver immediately")
	}
}

func TestQueueAbandonPrunesPending(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, wid := q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	q.Abandon(digest, wid)
	if _, ok := q.Lease("w1"); ok {
		t.Fatal("abandoned task still leased out")
	}
	if st := q.Stats(); st.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", st.Abandoned)
	}

	// Abandoning one of two waiters keeps the task.
	chA := make(chan Outcome, 1)
	chB := make(chan Outcome, 1)
	digest, widA := q.Enqueue(testCell(t, 2), EnqueueOptions{MaxAttempts: 1}, chA)
	q.Enqueue(testCell(t, 2), EnqueueOptions{MaxAttempts: 1}, chB)
	q.Abandon(digest, widA)
	if _, ok := q.Lease("w1"); !ok {
		t.Fatal("task with a live waiter was pruned")
	}
}

func TestQueueRenewExtendsLease(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), EnqueueOptions{MaxAttempts: 1}, ch)
	g, _ := q.Lease("w1")

	clock.advance(700 * time.Millisecond)
	if err := q.Renew(g.Lease, g.Fence); err != nil {
		t.Fatalf("renew of a live lease failed: %v", err)
	}
	clock.advance(700 * time.Millisecond)
	if n := q.ExpireLeases(); n != 0 {
		t.Fatal("renewed lease expired inside its extended window")
	}
	clock.advance(time.Second)
	if err := q.Renew(g.Lease, g.Fence); err != ErrLeaseGone {
		t.Fatalf("renew of an expired lease = %v, want ErrLeaseGone", err)
	}
}

// TestQueueCompleteVerdicts drives Queue.Complete through every verdict.
// Each row builds the queue state under an injected clock and returns the
// publish to judge; the row then asserts the verdict and the exact
// QueueStats counters that publish moved.
func TestQueueCompleteVerdicts(t *testing.T) {
	const ttl = time.Minute
	type row struct {
		name  string
		setup func(t *testing.T, q *Queue, clock *fakeClock) Publish
		want  Verdict
		bump  func(s *QueueStats) // counters the judged publish increments
		after func(t *testing.T, q *Queue, pub Publish)
	}
	enqueue := func(t *testing.T, q *Queue, seed int64) {
		q.Enqueue(testCell(t, seed), EnqueueOptions{MaxAttempts: 1}, make(chan Outcome, 1))
	}
	lease := func(t *testing.T, q *Queue, worker string) Grant {
		t.Helper()
		g, ok := q.Lease(worker)
		if !ok {
			t.Fatalf("no grant for %s", worker)
		}
		return g
	}
	depth := func(t *testing.T, q *Queue, pending, leased int) {
		t.Helper()
		if p, l := q.Depth(); p != pending || l != leased {
			t.Fatalf("depth = (%d pending, %d leased), want (%d, %d)", p, l, pending, leased)
		}
	}
	publish := func(t *testing.T, q *Queue, g Grant, res *machine.Result, want Verdict) Publish {
		t.Helper()
		pub := honestPublish(t, g, res)
		if out := q.Complete(pub); out.Verdict != want {
			t.Fatalf("setup publish verdict = %s, want %s", out.Verdict, want)
		}
		return pub
	}

	rows := []row{
		{
			name: "admitted",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				enqueue(t, q, 1)
				return honestPublish(t, lease(t, q, "w1"), fakeResult(1))
			},
			want: VerdictAdmitted,
			bump: func(s *QueueStats) { s.Completed++ },
		},
		{
			name: "vote recorded",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				q.ConfigureVerification(1)
				enqueue(t, q, 1)
				return honestPublish(t, lease(t, q, "w1"), fakeResult(1))
			},
			want: VerdictVoteRecorded,
			bump: func(s *QueueStats) { s.Votes++ },
		},
		{
			// w1 and w2 disagree on a 2-quorum cell; when the arbiter
			// then fails, the cell requeues for a fresh quorum.
			name: "quorum tie needs the arbiter",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				q.ConfigureVerification(1)
				enqueue(t, q, 1)
				publish(t, q, lease(t, q, "w1"), fakeResult(1), VerdictVoteRecorded)
				return honestPublish(t, lease(t, q, "w2"), fakeResult(2))
			},
			want: VerdictNeedArbiter,
			bump: func(s *QueueStats) { s.Votes++; s.Arbitrations++ },
			after: func(t *testing.T, q *Queue, pub Publish) {
				if _, ok := q.Lease("w3"); ok {
					t.Fatal("cell leasable while arbitrating")
				}
				depth(t, q, 0, 0)
				q.ArbiterFailed(pub.Digest)
				depth(t, q, 1, 0)
				g := lease(t, q, "w3")
				if g.Digest != pub.Digest || !g.Verify || g.Attempt != 1 {
					t.Fatalf("re-grant = %+v, want a fresh verified attempt at %s", g, pub.Digest)
				}
			},
		},
		{
			// Depth stays exact on every way back to pending: a failed
			// cell revived by a fresh enqueue, a lease expiry, and a
			// re-verification Requeue.
			name: "admitted after a revival and an expiry",
			setup: func(t *testing.T, q *Queue, clock *fakeClock) Publish {
				enqueue(t, q, 1)
				g := lease(t, q, "w1")
				q.Fail(g.Lease, g.Fence, g.Digest, "boom")
				depth(t, q, 0, 0)
				enqueue(t, q, 1)
				depth(t, q, 1, 0)
				lease(t, q, "w1")
				depth(t, q, 0, 1)
				clock.advance(ttl)
				q.ExpireLeases()
				depth(t, q, 1, 0)
				return honestPublish(t, lease(t, q, "w2"), fakeResult(1))
			},
			want: VerdictAdmitted,
			bump: func(s *QueueStats) { s.Completed++ },
			after: func(t *testing.T, q *Queue, pub Publish) {
				depth(t, q, 0, 0)
				if _, ok := q.Requeue(pub.Digest); !ok {
					t.Fatal("Requeue refused a done cell")
				}
				depth(t, q, 1, 0)
			},
		},
		{
			name: "late duplicate of the admitted answer",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				enqueue(t, q, 1)
				return publish(t, q, lease(t, q, "w1"), fakeResult(1), VerdictAdmitted)
			},
			want: VerdictDuplicate,
			bump: func(s *QueueStats) { s.LatePublishes++ },
		},
		{
			name: "retried vote under a dead lease",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				q.ConfigureVerification(1)
				enqueue(t, q, 1)
				return publish(t, q, lease(t, q, "w1"), fakeResult(1), VerdictVoteRecorded)
			},
			want: VerdictDuplicate,
			bump: func(s *QueueStats) { s.LatePublishes++ },
		},
		{
			name: "divergent publish on a done cell",
			setup: func(t *testing.T, q *Queue, clock *fakeClock) Publish {
				enqueue(t, q, 1)
				slow := lease(t, q, "w2")
				clock.advance(ttl)
				q.ExpireLeases()
				publish(t, q, lease(t, q, "w1"), fakeResult(1), VerdictAdmitted)
				return honestPublish(t, slow, fakeResult(2))
			},
			want: VerdictDivergent,
			bump: func(s *QueueStats) { s.DivergentPublishes++; s.VerifiedCells++ },
			after: func(t *testing.T, q *Queue, pub Publish) {
				if !q.tasks[pub.Digest].verify {
					t.Fatal("divergent cell not marked for verification")
				}
			},
		},
		{
			name: "zombie publish under an expired lease",
			setup: func(t *testing.T, q *Queue, clock *fakeClock) Publish {
				enqueue(t, q, 1)
				g := lease(t, q, "w1")
				clock.advance(ttl)
				q.ExpireLeases()
				return honestPublish(t, g, fakeResult(1))
			},
			want: VerdictZombie,
			bump: func(s *QueueStats) { s.ZombiePublishes++ },
		},
		{
			name: "forged fence",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				enqueue(t, q, 1)
				pub := honestPublish(t, lease(t, q, "w1"), fakeResult(1))
				pub.Fence = "forged"
				return pub
			},
			want: VerdictFenceMismatch,
			bump: func(s *QueueStats) { s.FenceMismatches++ },
		},
		{
			name: "attestation mismatch requeues",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				enqueue(t, q, 1)
				pub := honestPublish(t, lease(t, q, "w1"), fakeResult(1))
				pub.ResultDigest = wrongDigest
				return pub
			},
			want: VerdictDigestMismatch,
			bump: func(s *QueueStats) { s.DigestMismatches++ },
			after: func(t *testing.T, q *Queue, _ Publish) {
				if pending, leased := q.Depth(); pending != 1 || leased != 0 {
					t.Fatalf("depth = (%d pending, %d leased), want (1, 0)", pending, leased)
				}
			},
		},
		{
			name: "unknown task",
			setup: func(t *testing.T, q *Queue, _ *fakeClock) Publish {
				enqueue(t, q, 1)
				pub := honestPublish(t, lease(t, q, "w1"), fakeResult(1))
				pub.Digest = testCell(t, 99).Key().Digest()
				return pub
			},
			want: VerdictUnknown,
			after: func(t *testing.T, q *Queue, pub Publish) {
				// The lease named by the stray publish still backs its
				// own cell: its holder's publish is admitted.
				for digest := range q.tasks {
					pub.Digest = digest
				}
				if out := q.Complete(pub); out.Verdict != VerdictAdmitted {
					t.Fatalf("holder's publish verdict = %s, want admitted", out.Verdict)
				}
			},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			clock := newFakeClock()
			q := withClock(NewQueue(ttl), clock)
			pub := r.setup(t, q, clock)
			want := q.Stats()
			if r.bump != nil {
				r.bump(&want)
			}
			if out := q.Complete(pub); out.Verdict != r.want {
				t.Fatalf("verdict = %s (%s), want %s", out.Verdict, out.Reason, r.want)
			}
			if got := q.Stats(); got != want {
				t.Fatalf("stats = %+v\nwant    %+v", got, want)
			}
			if r.after != nil {
				r.after(t, q, pub)
			}
		})
	}
}

// BenchmarkLeaseComplete measures one Lease plus its Complete on a queue
// holding 10k pending cells, the lease queue's per-cell control-plane
// cost. Admitted cells are re-enqueued outside the timer, keeping the
// backlog at 10k.
func BenchmarkLeaseComplete(b *testing.B) {
	const backlog = 10_000
	res := fakeResult(1)
	attest, err := ResultDigest(res)
	if err != nil {
		b.Fatal(err)
	}
	q := NewQueue(time.Hour)
	byDigest := make(map[string]sweep.Cell, backlog)
	for i := 1; i <= backlog; i++ {
		c := testCell(b, int64(i))
		d, _ := q.Enqueue(c, EnqueueOptions{MaxAttempts: 1}, make(chan Outcome, 1))
		byDigest[d] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, ok := q.Lease("w1")
		if !ok {
			b.Fatal("lease: no grant")
		}
		out := q.Complete(Publish{
			Lease: g.Lease, Fence: g.Fence, Digest: g.Digest,
			ResultDigest: attest, Canonical: attest, Result: res,
		})
		if out.Verdict != VerdictAdmitted {
			b.Fatalf("verdict = %s", out.Verdict)
		}
		b.StopTimer()
		// A done task would coalesce a re-enqueue; drop it so the cell
		// queues afresh and the backlog stays at 10k.
		delete(q.tasks, g.Digest)
		q.Enqueue(byDigest[g.Digest], EnqueueOptions{MaxAttempts: 1}, make(chan Outcome, 1))
		b.StartTimer()
	}
}
