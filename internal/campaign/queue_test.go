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
func testCell(t *testing.T, seed int64) sweep.Cell {
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

// fakeClock is an injectable time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) advance(d time.Duration)  { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(q *Queue, c *fakeClock) *Queue { q.now = c.now; return q }

// mustLease leases as worker, failing the test on a quarantine error.
func mustLease(t *testing.T, q *Queue, worker string) (Grant, bool) {
	t.Helper()
	g, ok, err := q.Lease(worker)
	if err != nil {
		t.Fatalf("lease(%s): %v", worker, err)
	}
	return g, ok
}

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
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)

	g, ok := mustLease(t, q, "w1")
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
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)

	if _, ok := mustLease(t, q, "w1"); !ok {
		t.Fatal("no grant")
	}
	if _, ok := mustLease(t, q, "w2"); ok {
		t.Fatal("leased task granted twice while the lease is live")
	}

	clock.advance(2 * time.Second)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}

	g2, ok := mustLease(t, q, "w2")
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
	q.Enqueue(testCell(t, 1), 1, 0, ch)

	g1, _ := mustLease(t, q, "stalled")
	clock.advance(2 * time.Second) // stalled worker sleeps past its TTL

	g2, ok := mustLease(t, q, "healthy")
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
	// duplicate, not a zombie strike.
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
		t.Fatalf("ZombiePublishes = %d, want 0 (honest duplicate must not strike)", st.ZombiePublishes)
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
	q.Enqueue(testCell(t, 1), 1, 0, ch)

	g1, _ := mustLease(t, q, "stalled")
	clock.advance(2 * time.Second)
	g2, _ := mustLease(t, q, "healthy")

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
	ws := q.Workers()
	if len(ws) == 0 || ws[len(ws)-1].Name != "stalled" || ws[len(ws)-1].Zombies != 1 {
		t.Fatalf("stalled worker's zombie strike not recorded: %+v", ws)
	}
}

func TestQueueFailRetriesThenDelivers(t *testing.T) {
	q := NewQueue(time.Minute)
	ch := make(chan Outcome, 1)
	digest, _ := q.Enqueue(testCell(t, 1), 2, 0, ch) // 1 retry

	g1, _ := mustLease(t, q, "w1")
	q.Fail(g1.Lease, digest, "boom")
	select {
	case <-ch:
		t.Fatal("failure delivered with attempts remaining")
	default:
	}

	g2, ok := mustLease(t, q, "w1")
	if !ok {
		t.Fatal("failed task not requeued within its attempt budget")
	}
	if g2.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", g2.Attempt)
	}
	q.Fail(g2.Lease, digest, "boom again")
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
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch)

	g1, _ := mustLease(t, q, "w1")
	clock.advance(2 * time.Second)
	g2, _ := mustLease(t, q, "w2")

	// w1's failure report arrives under its expired lease: ignored, no
	// attempt burned, w2's lease untouched.
	q.Fail(g1.Lease, digest, "late failure")
	select {
	case <-ch:
		t.Fatal("stale failure delivered an outcome")
	default:
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
	digest, _ := q.Enqueue(testCell(t, 1), 1, 0, ch1)
	d2, _ := q.Enqueue(testCell(t, 1), 1, 0, ch2)
	if digest != d2 {
		t.Fatal("identical cells got different digests")
	}
	if st := q.Stats(); st.Enqueued != 1 || st.Deduped != 1 {
		t.Fatalf("Enqueued=%d Deduped=%d, want 1/1", st.Enqueued, st.Deduped)
	}

	g, _ := mustLease(t, q, "w1")
	q.Complete(honestPublish(t, g, fakeResult(7)))
	if out := <-ch1; out.Res == nil {
		t.Fatal("first waiter missed the result")
	}
	if out := <-ch2; out.Res == nil {
		t.Fatal("second waiter missed the result")
	}

	// A third enqueue after completion delivers immediately.
	ch3 := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, ch3)
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
	digest, wid := q.Enqueue(testCell(t, 1), 1, 0, ch)
	q.Abandon(digest, wid)
	if _, ok := mustLease(t, q, "w1"); ok {
		t.Fatal("abandoned task still leased out")
	}
	if st := q.Stats(); st.Abandoned != 1 {
		t.Fatalf("Abandoned = %d, want 1", st.Abandoned)
	}

	// Abandoning one of two waiters keeps the task.
	chA := make(chan Outcome, 1)
	chB := make(chan Outcome, 1)
	digest, widA := q.Enqueue(testCell(t, 2), 1, 0, chA)
	q.Enqueue(testCell(t, 2), 1, 0, chB)
	q.Abandon(digest, widA)
	if _, ok := mustLease(t, q, "w1"); !ok {
		t.Fatal("task with a live waiter was pruned")
	}
}

func TestQueueRenewExtendsLease(t *testing.T) {
	clock := newFakeClock()
	q := withClock(NewQueue(time.Second), clock)
	ch := make(chan Outcome, 1)
	q.Enqueue(testCell(t, 1), 1, 0, ch)
	g, _ := mustLease(t, q, "w1")

	clock.advance(700 * time.Millisecond)
	if err := q.Renew(g.Lease); err != nil {
		t.Fatalf("renew of a live lease failed: %v", err)
	}
	clock.advance(700 * time.Millisecond)
	if n := q.ExpireLeases(); n != 0 {
		t.Fatal("renewed lease expired inside its extended window")
	}
	clock.advance(time.Second)
	if err := q.Renew(g.Lease); err != ErrLeaseGone {
		t.Fatalf("renew of an expired lease = %v, want ErrLeaseGone", err)
	}
}
