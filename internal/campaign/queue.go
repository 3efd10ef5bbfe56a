// Package campaign serves sweep campaigns as a long-running system: a
// coordinator exposes a versioned HTTP+JSON API (submit, status, cancel,
// fetch tables) backed by a work queue of sweep-cell digests with
// time-bounded leases, and worker processes lease cells, execute them
// through the existing sweep engine, and publish results into the shared
// content-addressed store.
//
// The store's digest keying is what makes the whole protocol safe under
// failure: a simulation is deterministic in its cell digest, so a result
// is valid no matter which worker produced it or how many times, and a
// crashed worker is just an expired lease waiting to be re-issued.
//
// Determinism also powers the checks on worker input: because a cell's
// correct result is a pure function of its digest, two correct
// executions agree byte-for-byte. Workers therefore attest a canonical
// result digest with every publish, publishes are fenced to their lease
// (a token minted at grant time, so a zombie publish from an expired
// lease is rejected rather than silently accepted), and a configurable
// fraction of cells is executed by a quorum of independent workers whose
// digests must agree. Workers holding the auth token are trusted; the
// quorum guards against faulty executions and corruption in flight.
package campaign

import (
	"container/list"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"secmgpu/internal/machine"
	"secmgpu/internal/metrics"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// Outcome is the terminal state of one queued cell, delivered to every
// campaign waiting on it.
type Outcome struct {
	Res *machine.Result
	Err error
}

// taskState is the lifecycle of one queued cell. setStateLocked is the
// only code that changes a task's state.
type taskState int

const (
	// taskNone: not in the queue — a task under construction, or one
	// Abandon pruned.
	taskNone taskState = iota
	// taskPending: in its bucket's FIFO, waiting for a worker lease.
	taskPending
	// taskLeased: held by a worker under a live lease.
	taskLeased
	// taskArbitrating: a verification quorum disagreed with no majority;
	// the coordinator is re-executing the cell itself as the arbiter.
	// Not leasable until ResolveArbiter or ArbiterFailed.
	taskArbitrating
	// taskDone: a verified result was published.
	taskDone
	// taskFailed: every granted attempt failed.
	taskFailed
)

// vote is one worker's published answer for a verified cell.
type vote struct {
	worker string
	digest string // canonical result digest
	res    *machine.Result
}

// task is one unit of work: a sweep cell identified by its content
// digest. Tasks are deduplicated by digest across campaigns, so two
// campaigns needing the same cell wait on one simulation.
type task struct {
	digest string
	cell   sweep.Cell
	state  taskState

	// attempts counts failed attempts so far; maxAttempts bounds them
	// (raised to the most generous enqueuer's budget).
	attempts    int
	maxAttempts int

	// cellTimeout travels with lease grants so workers bound the cell's
	// wall time; the most lenient enqueuer wins (0 = unbounded).
	cellTimeout time.Duration

	// bucket is the fairness bucket (campaign) the task schedules under;
	// a shared cell moves to the highest-weight waiter's bucket. elem is
	// the task's entry in that bucket's FIFO while it is pending.
	bucket *bucketState
	elem   *list.Element

	// deadline is the absolute point past which the work is worthless to
	// every waiter (zero = none; the most lenient waiter wins). It rides
	// on lease grants so workers bound their simulation contexts.
	deadline time.Time

	// queuedAt stamps the last transition into taskPending, feeding the
	// per-bucket queue-wait histogram at grant time.
	queuedAt time.Time

	// verify marks the task for quorum verification: it needs
	// verifyQuorum agreeing independent executions instead of one. Set
	// at enqueue by the verify fraction, by Requeue, or permanently once
	// any publish for the cell ever diverged.
	verify bool
	votes  []vote

	// lease is the one live lease while state == taskLeased, nil
	// otherwise. A slow cell is re-leased only after that lease expires.
	lease *lease

	// waiters are delivery channels keyed by waiter ID; each channel has
	// capacity 1 and receives exactly one Outcome.
	waiters map[int]chan<- Outcome

	res *machine.Result
	// resDigest is the canonical digest of the admitted result; later
	// publishes are judged benign duplicates or divergence against it.
	resDigest string
	err       error
}

// lease is one worker's time-bounded claim on a task. A dead lease
// (completed, failed, or expired) moves as it is into the tombstone ring,
// so a publish arriving under it can still be attributed to its worker
// and judged: same answer as the admitted one → benign duplicate,
// anything else → zombie or divergence.
type lease struct {
	id       string
	fence    string
	digest   string
	worker   string
	deadline time.Time
	granted  time.Time // grant instant, for the lease-duration histogram
}

// maxLeaseTombs bounds the tombstone ring; old entries fall off and
// their publishes become unattributable zombies (still rejected).
const maxLeaseTombs = 4096

// Grant is what a worker receives from a successful lease call; it is
// also the lease response body, encoded as is.
type Grant struct {
	// Lease is the opaque lease ID used for renew/complete/fail.
	Lease string `json:"lease"`
	// Fence is the lease's fencing token. A publish must present it;
	// publishes without the live fence are rejected as zombies.
	Fence string `json:"fence"`
	// Digest is the cell's content address (also the store key).
	Digest string `json:"digest"`
	// Key is the work itself: the workload abbreviation, the config and
	// the canonical run options the digest is computed from. Workload
	// parameters never travel; the worker resolves the abbreviation
	// against its own registry (cell).
	Key sweep.Key `json:"key"`
	// Label names the cell in logs and store entries.
	Label string `json:"label,omitempty"`
	// Verify marks a quorum-verification execution: the worker must
	// compute the cell fresh (no store rehydration, no cache) so its
	// vote is an independent re-execution.
	Verify bool `json:"verify,omitempty"`
	// TTL is the lease duration; the worker must renew within it.
	TTL time.Duration `json:"ttl"`
	// CellTimeout bounds the cell's simulation wall time (0 = unbounded).
	CellTimeout time.Duration `json:"cell_timeout,omitempty"`
	// Deadline, when non-zero, is the absolute point past which no
	// waiter wants the result; workers bound their simulation context by
	// it so doomed work cancels instead of running to completion.
	Deadline time.Time `json:"deadline"`
	// Attempt is 1 for the first execution of this cell, higher after
	// failures or expiries.
	Attempt int `json:"attempt"`
}

// cell resolves the grant against the workload registry.
func (g Grant) cell() (sweep.Cell, error) {
	spec, err := workload.ByAbbr(g.Key.Abbr)
	if err != nil {
		return sweep.Cell{}, err
	}
	return sweep.Cell{Spec: spec, Cfg: g.Key.Cfg, Opt: g.Key.Opt, Label: g.Label}, nil
}

// QueueStats counts queue activity since construction.
type QueueStats struct {
	// Enqueued counts distinct tasks added (dedup hits do not count).
	Enqueued int
	// Deduped counts enqueues coalesced onto an existing task.
	Deduped int
	// Leased counts lease grants.
	Leased int
	// Expired counts leases that timed out and requeued their task.
	Expired int
	// Completed counts first-time task completions.
	Completed int
	// LatePublishes counts benign re-publishes of an already-admitted
	// answer — a retried RPC or a slow worker agreeing with the winner.
	// Harmless by construction (digest-keyed results).
	LatePublishes int
	// Failed counts tasks that exhausted their attempts.
	Failed int
	// Abandoned counts pending tasks pruned because no campaign waits
	// on them anymore.
	Abandoned int

	// Hedged is always 0: a cell holds at most one live lease, so no
	// speculative second lease is ever granted. It stays because the
	// benchmark reports it as campaign.hedged.
	Hedged int

	// VerifiedCells counts tasks selected for quorum verification.
	VerifiedCells int
	// Votes counts verification executions recorded.
	Votes int
	// ZombiePublishes counts publishes rejected because their lease was
	// expired, superseded, or never existed.
	ZombiePublishes int
	// FenceMismatches counts publishes naming a live lease but carrying
	// the wrong fencing token or the wrong cell digest.
	FenceMismatches int
	// DigestMismatches counts publishes whose attested result digest did
	// not match the payload they shipped.
	DigestMismatches int
	// DivergentVotes counts quorum votes rejected for disagreeing with
	// the admitted value.
	DivergentVotes int
	// DivergentPublishes counts publishes for a done task whose payload
	// differed from the admitted result — direct evidence of a wrong
	// answer.
	DivergentPublishes int
	// Arbitrations counts quorums that disagreed without a majority and
	// escalated to coordinator re-execution.
	Arbitrations int
	// Reverifies counts done tasks requeued for quorum re-execution
	// after divergence evidence.
	Reverifies int
}

// Verdict classifies the queue's judgment of one publish.
type Verdict int

const (
	// VerdictAdmitted: the publish (or the quorum it completed) resolved
	// the task; CompleteResult.Res carries the admitted result.
	VerdictAdmitted Verdict = iota
	// VerdictVoteRecorded: a verification vote was recorded; the task
	// requeues for more independent executions.
	VerdictVoteRecorded
	// VerdictNeedArbiter: the quorum disagreed with no clear majority;
	// the coordinator must re-execute the cell itself and call
	// ResolveArbiter.
	VerdictNeedArbiter
	// VerdictDuplicate: benign re-publish of the already-admitted answer
	// (retried RPC, or a slow worker agreeing with the winner).
	VerdictDuplicate
	// VerdictZombie: rejected — the lease is expired, superseded, or
	// unknown, and the payload does not match an admitted value.
	VerdictZombie
	// VerdictFenceMismatch: rejected — live lease, wrong fencing token
	// or wrong cell digest for the lease.
	VerdictFenceMismatch
	// VerdictDigestMismatch: rejected — the attested result digest does
	// not match the shipped payload.
	VerdictDigestMismatch
	// VerdictDivergent: rejected — publish for a done task whose payload
	// differs from the admitted value. The coordinator re-verifies the
	// cell under quorum in response.
	VerdictDivergent
	// VerdictUnknown: the digest names no known task (e.g. a publish
	// straddling a coordinator restart). Rejected; the work re-runs.
	VerdictUnknown
)

// String names the verdict for logs and error bodies.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmitted:
		return "admitted"
	case VerdictVoteRecorded:
		return "vote recorded"
	case VerdictNeedArbiter:
		return "quorum tied, arbitrating"
	case VerdictDuplicate:
		return "duplicate"
	case VerdictZombie:
		return "zombie publish"
	case VerdictFenceMismatch:
		return "fence mismatch"
	case VerdictDigestMismatch:
		return "attested digest mismatch"
	case VerdictDivergent:
		return "divergent publish"
	case VerdictUnknown:
		return "unknown task"
	}
	return "unknown verdict"
}

// Rejected reports whether the verdict refused the publish.
func (v Verdict) Rejected() bool {
	switch v {
	case VerdictZombie, VerdictFenceMismatch, VerdictDigestMismatch, VerdictDivergent, VerdictUnknown:
		return true
	}
	return false
}

// Publish is one worker's completed-cell submission as judged by the
// queue, and the complete request body. Lease travels in the request
// path. Canonical is computed by the coordinator from the payload it
// actually received, never read off the wire; ResultDigest is what the
// worker claims. The two disagreeing is itself evidence of a fault.
type Publish struct {
	Lease        string          `json:"-"`
	Fence        string          `json:"fence,omitempty"`
	Digest       string          `json:"digest"`
	ResultDigest string          `json:"result_digest,omitempty"` // worker's attestation ("" = unattested legacy publish)
	Canonical    string          `json:"-"`
	Result       *machine.Result `json:"result"`
}

// CompleteResult is the queue's decision on a publish.
type CompleteResult struct {
	Verdict Verdict
	Reason  string
	// Res and ResDigest carry the admitted result on VerdictAdmitted.
	Res       *machine.Result
	ResDigest string
	// Cell is the queued cell on VerdictAdmitted (its label names the
	// store entry), VerdictNeedArbiter (re-execute it) and
	// VerdictDivergent (re-verify it).
	Cell sweep.Cell
	// Worker is the attributed publisher ("" when unattributable).
	Worker string
}

// Fairness weights for the three campaign priorities. Stride scheduling
// grants buckets in inverse proportion to their stride, so a high bucket
// gets 16 grants for every low bucket's 1 when both are backlogged.
const (
	weightLow    = 1
	weightNormal = 4
	weightHigh   = 16
	// strideUnit is divisible by every weight, keeping passes exact.
	strideUnit = 960
)

// latencyBoundsMS are the shared bucket bounds (milliseconds) for the
// queue-wait and lease-duration histograms surfaced on /v1/healthz.
var latencyBoundsMS = []uint64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

// bucketState is one fairness bucket: a campaign (or the "" default
// bucket for legacy enqueues) with a stride-scheduler pass value, its
// pending FIFO, and the latency evidence for its tasks.
type bucketState struct {
	name   string
	weight int
	seq    int     // creation order, the deterministic pass tie-break
	pass   float64 // stride virtual time consumed by this bucket's grants
	grants int

	// pending is the bucket's FIFO of *task: exactly its taskPending
	// tasks, oldest first.
	pending list.List

	waitHist  *metrics.Histogram // enqueue→grant, ms
	leaseHist *metrics.Histogram // grant→admitted publish, ms
}

// CampaignLatency is one bucket's latency evidence on /v1/healthz: how
// long its cells waited for a lease and how long leases ran.
type CampaignLatency struct {
	Campaign string             `json:"campaign"`
	Weight   int                `json:"weight"`
	Grants   int                `json:"grants"`
	WaitMS   *metrics.Histogram `json:"wait_ms"`
	LeaseMS  *metrics.Histogram `json:"lease_ms"`
}

// Queue is the coordinator's lease-based work queue. All methods are safe
// for concurrent use. Time is injectable for tests.
type Queue struct {
	mu    sync.Mutex
	tasks map[string]*task
	// count is the number of tasks in each state (the taskNone slot is
	// never read).
	count   [taskFailed + 1]int
	leases  map[string]*lease // live leases
	tombs   map[string]*lease // dead leases, for publish attribution
	tombLog []string          // tombs in retirement order, capped at maxLeaseTombs
	ttl     time.Duration
	now     func() time.Time

	// buckets are the weighted-fair scheduling groups and ready those
	// with pending work; vtime is the pass of the most recent grant, the
	// join point for idle buckets so a returning bucket cannot
	// monopolize grants with a stale low pass.
	buckets map[string]*bucketState
	ready   []*bucketState
	vtime   float64

	// verifyFraction in [0,1] selects cells for quorum verification by
	// their digest.
	verifyFraction float64

	nextLease  int
	nextWaiter int
	stats      QueueStats
}

// NewQueue returns a queue issuing leases of the given TTL (<= 0 selects
// 30s).
func NewQueue(ttl time.Duration) *Queue {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	return &Queue{
		tasks:   make(map[string]*task),
		leases:  make(map[string]*lease),
		tombs:   make(map[string]*lease),
		buckets: make(map[string]*bucketState),
		ttl:     ttl,
		now:     time.Now,
	}
}

// verifyQuorum is how many independent executions a verified cell
// needs before a majority of them is admitted.
const verifyQuorum = 2

// ConfigureVerification sets the fraction of cells selected for quorum
// verification (clamped to [0,1]).
func (q *Queue) ConfigureVerification(fraction float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.verifyFraction = min(max(fraction, 0), 1)
}

// TTL returns the lease duration.
func (q *Queue) TTL() time.Duration { return q.ttl }

// Stats returns a snapshot of the activity counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Depth returns the number of pending and leased tasks. Lapsed leases
// are collected first, so the counts are exact.
func (q *Queue) Depth() (pending, leased int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	return q.count[taskPending], q.count[taskLeased]
}

// EnqueueOptions shapes how an enqueued cell schedules.
type EnqueueOptions struct {
	// MaxAttempts bounds execution attempts (minimum 1; a more generous
	// budget raises an existing task's bound).
	MaxAttempts int
	// CellTimeout bounds the cell's simulation wall time on lease grants
	// (0 = unbounded; the most lenient enqueuer wins).
	CellTimeout time.Duration
	// Campaign names the fairness bucket; "" shares the default bucket.
	Campaign string
	// Weight is the bucket's stride weight (<= 0 selects weightNormal).
	Weight int
	// Deadline, when non-zero, marks the work worthless past that point;
	// the most lenient waiter wins (a waiter without a deadline clears
	// an existing one).
	Deadline time.Time
}

// Enqueue adds a cell (identified by its digest) and registers ch to
// receive its Outcome. If an identical task is already queued, leased, or
// finished, the call coalesces onto it: a finished task delivers
// immediately, otherwise ch is added to the waiter set. Budgets merge in
// the waiters' favor: the most generous attempt budget, the most lenient
// cell timeout and deadline, the highest-weight bucket. A pending cell
// that moves to a higher-weight bucket joins the tail of that bucket's
// FIFO, behind the cells already queued there; its wait clock is not
// reset. The returned waiter ID cancels the interest via Abandon. ch
// must have capacity >= 1; it receives exactly one Outcome unless
// abandoned first.
func (q *Queue) Enqueue(cell sweep.Cell, opts EnqueueOptions, ch chan<- Outcome) (digest string, waiterID int) {
	maxAttempts := opts.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	weight := opts.Weight
	if weight <= 0 {
		weight = weightNormal
	}
	digest = cell.Key().Digest()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucketLocked(opts.Campaign, weight)
	q.nextWaiter++
	waiterID = q.nextWaiter
	if t, ok := q.tasks[digest]; ok {
		q.stats.Deduped++
		if opts.CellTimeout == 0 || (t.cellTimeout != 0 && opts.CellTimeout > t.cellTimeout) {
			t.cellTimeout = opts.CellTimeout
		}
		// Most lenient deadline wins: a waiter without one clears it.
		if opts.Deadline.IsZero() {
			t.deadline = time.Time{}
		} else if !t.deadline.IsZero() && opts.Deadline.After(t.deadline) {
			t.deadline = opts.Deadline
		}
		// A shared cell schedules at its most urgent waiter's priority.
		if b.weight > t.bucket.weight && t.state == taskPending {
			q.unlinkLocked(t)
			t.bucket = b
			q.linkLocked(t)
		} else if b.weight > t.bucket.weight {
			t.bucket = b
		}
		switch t.state {
		case taskDone:
			ch <- Outcome{Res: t.res}
		case taskFailed:
			// A fresh campaign gets a fresh chance: revive the task
			// rather than replaying a stale failure.
			t.attempts = 0
			t.err = nil
			t.maxAttempts = maxAttempts
			t.waiters[waiterID] = ch
			q.requeueLocked(t)
		default:
			if maxAttempts > t.maxAttempts {
				t.maxAttempts = maxAttempts
			}
			t.waiters[waiterID] = ch
		}
		return digest, waiterID
	}
	t := &task{
		digest:      digest,
		cell:        cell,
		maxAttempts: maxAttempts,
		cellTimeout: opts.CellTimeout,
		bucket:      b,
		deadline:    opts.Deadline,
		queuedAt:    q.now(),
		waiters:     map[int]chan<- Outcome{waiterID: ch},
	}
	if q.verifyFraction > 0 && digestFraction(digest) < q.verifyFraction {
		t.verify = true
		q.stats.VerifiedCells++
	}
	q.tasks[digest] = t
	q.setStateLocked(t, taskPending)
	q.stats.Enqueued++
	return digest, waiterID
}

// bucketLocked returns (creating if needed) the named fairness bucket. A
// new or returning bucket joins at the current virtual time so an idle
// spell does not bank grants. An existing bucket's weight only rises —
// the shared "" bucket keeps its most urgent claim.
func (q *Queue) bucketLocked(name string, weight int) *bucketState {
	b, ok := q.buckets[name]
	if !ok {
		b = &bucketState{
			name:      name,
			weight:    weight,
			seq:       len(q.buckets),
			pass:      q.vtime,
			waitHist:  metrics.NewHistogram(latencyBoundsMS...),
			leaseHist: metrics.NewHistogram(latencyBoundsMS...),
		}
		q.buckets[name] = b
	} else if weight > b.weight {
		b.weight = weight
	}
	return b
}

// requeueLocked returns a task to pending: stamps the wait clock, lifts
// its bucket's pass to the current virtual time if it fell behind, and
// joins the tail of the bucket's FIFO.
func (q *Queue) requeueLocked(t *task) {
	t.queuedAt = q.now()
	if t.bucket.pass < q.vtime {
		t.bucket.pass = q.vtime
	}
	q.setStateLocked(t, taskPending)
}

// setStateLocked is the one transition function: the only code that
// assigns t.state. It keeps the derived state in step: a task leaving
// taskPending leaves its bucket's FIFO and one entering it joins the
// tail; a task leaving taskLeased retires its lease into the tombstone
// ring; the per-state counts follow.
func (q *Queue) setStateLocked(t *task, state taskState) {
	switch t.state {
	case taskPending:
		q.unlinkLocked(t)
	case taskLeased:
		q.retireLocked(t.lease)
		t.lease = nil
	}
	q.count[t.state]--
	q.count[state]++
	t.state = state
	if state == taskPending {
		q.linkLocked(t)
	}
}

// linkLocked appends t to the tail of its bucket's FIFO; a bucket
// gaining its first pending task joins the ready list.
func (q *Queue) linkLocked(t *task) {
	if t.bucket.pending.Len() == 0 {
		q.ready = append(q.ready, t.bucket)
	}
	t.elem = t.bucket.pending.PushBack(t)
}

// unlinkLocked removes t from its bucket's FIFO; a bucket left without
// pending tasks leaves the ready list.
func (q *Queue) unlinkLocked(t *task) {
	b := t.bucket
	b.pending.Remove(t.elem)
	t.elem = nil
	if b.pending.Len() == 0 {
		i := slices.Index(q.ready, b)
		q.ready = slices.Delete(q.ready, i, i+1)
	}
}

// retireLocked moves a dead lease into the tombstone ring as it is, so
// later publishes under it stay attributable.
func (q *Queue) retireLocked(l *lease) {
	delete(q.leases, l.id)
	q.tombs[l.id] = l
	q.tombLog = append(q.tombLog, l.id)
	if len(q.tombLog) > maxLeaseTombs {
		delete(q.tombs, q.tombLog[0])
		q.tombLog = q.tombLog[1:]
	}
}

// digestFraction maps a hex digest onto [0,1) using its leading 52 bits,
// giving a deterministic, uniformly distributed verification lottery: the
// same cell is selected on every coordinator, every restart.
func digestFraction(digest string) float64 {
	if len(digest) < 13 {
		return 0
	}
	v, err := strconv.ParseUint(digest[:13], 16, 64)
	if err != nil {
		return 0
	}
	return float64(v) / float64(uint64(1)<<52)
}

// Requeue sends a done task back for quorum re-execution — the response
// to divergence evidence against its admitted value. The task is
// pending again, so a campaign enqueuing the cell meanwhile waits for the
// fresh quorum's value instead of receiving the stale result. Reports
// ok=false when the digest is unknown or the task is not done.
func (q *Queue) Requeue(digest string) (cell sweep.Cell, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, found := q.tasks[digest]
	if !found || t.state != taskDone {
		return sweep.Cell{}, false
	}
	if !t.verify {
		t.verify = true
		q.stats.VerifiedCells++
	}
	t.votes = nil
	t.attempts = 0
	if t.maxAttempts < 2 {
		t.maxAttempts = 2
	}
	q.requeueLocked(t)
	q.stats.Reverifies++
	return t.cell, true
}

// Abandon withdraws a waiter's interest in a task. A pending task nobody
// waits on anymore is pruned (a leased one finishes and its result is
// kept — it is already paid for and digest-keyed for reuse).
func (q *Queue) Abandon(digest string, waiterID int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	t, ok := q.tasks[digest]
	if !ok {
		return
	}
	delete(t.waiters, waiterID)
	if len(t.waiters) == 0 && t.state == taskPending && len(t.votes) == 0 {
		q.setStateLocked(t, taskNone)
		delete(q.tasks, digest)
		q.stats.Abandoned++
	}
}

// Lease grants a pending task to worker under a fresh lease, or reports
// ok=false when nothing is grantable. Expired leases are collected
// first, so a crashed worker's task is grantable as soon as its TTL
// lapses.
//
// Selection is weighted-fair across campaign buckets: the eligible
// bucket with the lowest stride pass wins (ties break by creation
// order) and is charged strideUnit/weight, so a huge low-priority
// campaign cannot starve a small interactive one. Within a bucket,
// order stays FIFO. For cells under quorum verification, tasks the
// worker has not yet voted on are preferred, so votes come from
// independent workers when the fleet allows it; a lone worker still
// makes progress (ties escalate to the coordinator-side arbiter instead
// of deadlocking).
func (q *Queue) Lease(worker string) (Grant, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	t := q.pickLocked(worker)
	if t == nil {
		return Grant{}, false
	}

	b := t.bucket
	q.vtime = b.pass
	b.pass += strideUnit / float64(b.weight)
	b.grants++
	now := q.now()
	if wait := now.Sub(t.queuedAt); wait >= 0 && !t.queuedAt.IsZero() {
		b.waitHist.Observe(uint64(wait / time.Millisecond))
	}

	q.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l%06d", q.nextLease),
		fence:    newFence(),
		digest:   t.digest,
		worker:   worker,
		deadline: now.Add(q.ttl),
		granted:  now,
	}
	q.leases[l.id] = l
	q.setStateLocked(t, taskLeased)
	t.lease = l
	q.stats.Leased++
	return Grant{
		Lease:       l.id,
		Fence:       l.fence,
		Digest:      t.digest,
		Key:         t.cell.Key(),
		Label:       t.cell.Label,
		Verify:      t.verify,
		TTL:         q.ttl,
		CellTimeout: t.cellTimeout,
		Deadline:    t.deadline,
		Attempt:     t.attempts + 1,
	}, true
}

// pickLocked chooses the pending task to grant worker (nil when none is
// pending): the oldest task the worker has not voted on, from the ready
// bucket with the lowest stride pass among those holding one (ties by
// creation order). When the worker voted on every pending task, the
// lowest-pass bucket grants its oldest task.
func (q *Queue) pickLocked(worker string) *task {
	var pick, fallback *task
	for _, b := range q.ready {
		if fallback == nil || b.before(fallback.bucket) {
			fallback = b.pending.Front().Value.(*task)
		}
		if pick != nil && !b.before(pick.bucket) {
			continue
		}
		for e := b.pending.Front(); e != nil; e = e.Next() {
			if t := e.Value.(*task); !t.verify || !t.votedBy(worker) {
				pick = t
				break
			}
		}
	}
	if pick == nil {
		return fallback
	}
	return pick
}

// before orders buckets for grants: the lower stride pass first, ties by
// creation order.
func (b *bucketState) before(o *bucketState) bool {
	return b.pass < o.pass || (b.pass == o.pass && b.seq < o.seq)
}

// Latencies returns per-campaign latency evidence: queue-wait and
// lease-duration histograms, cloned so callers can serialize without
// racing the queue. Buckets that never granted are omitted.
func (q *Queue) Latencies() []CampaignLatency {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]CampaignLatency, 0, len(q.buckets))
	for _, b := range q.buckets {
		if b.grants == 0 {
			continue
		}
		out = append(out, CampaignLatency{
			Campaign: b.name,
			Weight:   b.weight,
			Grants:   b.grants,
			WaitMS:   b.waitHist.Clone(),
			LeaseMS:  b.leaseHist.Clone(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Campaign < out[j].Campaign })
	return out
}

// newFence mints an unguessable fencing token.
func newFence() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// non-secret token rather than refusing to grant work.
		return fmt.Sprintf("f%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ErrLeaseGone is returned by Renew when the lease expired or was
// superseded; the worker should finish and publish (a benign duplicate
// is accepted) but must expect the cell may also run elsewhere and its
// own publish may be fenced off.
var ErrLeaseGone = fmt.Errorf("campaign: lease expired or superseded")

// Renew extends the live lease leaseID by the queue TTL. It is fenced
// like a publish: an expired or superseded lease, or a fencing token
// other than the lease's, gets ErrLeaseGone and leaves the lease as it
// is, so no peer can keep another worker's lease alive.
func (q *Queue) Renew(leaseID, fence string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	l, ok := q.leases[leaseID]
	if !ok || l.fence != fence {
		return ErrLeaseGone
	}
	l.deadline = q.now().Add(q.ttl)
	return nil
}

// Complete judges a publish. The checks, in order:
//
//  1. Attribution: the lease table or its tombstones name the worker and
//     fence; a wholly unknown lease is an unattributable zombie.
//  2. Done tasks: a payload matching the admitted digest is a benign
//     duplicate; anything else is divergence evidence that re-verifies
//     the cell.
//  3. Fencing: a dead lease (expired/superseded) is a zombie publish —
//     unless it is a retried RPC re-shipping the worker's own recorded
//     vote. A live lease with the wrong fence or wrong digest is
//     rejected without disturbing the real leaseholder.
//  4. Attestation: the worker's claimed result digest must match the
//     payload the coordinator actually received.
//  5. Admission: unverified cells admit immediately; verified cells
//     record a vote and requeue until the quorum agrees (majority of
//     latest votes per worker), tying quorums escalate to the arbiter.
func (q *Queue) Complete(pub Publish) CompleteResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()

	l, live := q.leases[pub.Lease]
	if !live {
		l = q.tombs[pub.Lease]
	}
	worker := ""
	if l != nil {
		worker = l.worker
	}

	t, ok := q.tasks[pub.Digest]
	if !ok {
		// Unknown work (e.g. a publish straddling a coordinator
		// restart). A live lease under this ID backs some other task and
		// stays; the successor's recovery re-enqueues the cell and it
		// re-runs.
		return CompleteResult{Verdict: VerdictUnknown, Reason: "no task for digest " + short(pub.Digest), Worker: worker}
	}

	if t.state == taskDone {
		// A done task holds no lease, so the publish retires none.
		if pub.Canonical != "" && pub.Canonical == t.resDigest {
			q.stats.LatePublishes++
			return CompleteResult{Verdict: VerdictDuplicate, Worker: worker}
		}
		q.stats.DivergentPublishes++
		if !t.verify {
			t.verify = true
			q.stats.VerifiedCells++
		}
		return CompleteResult{
			Verdict: VerdictDivergent,
			Reason:  "payload differs from admitted result",
			Cell:    t.cell,
			Worker:  worker,
		}
	}

	if !live {
		// Dead or unknown lease on unfinished work. A retried RPC
		// re-shipping this worker's own recorded vote is benign;
		// everything else is a zombie publish, fenced off.
		if worker != "" && t.verify && pub.Canonical != "" && t.latestVote(worker) == pub.Canonical {
			q.stats.LatePublishes++
			return CompleteResult{Verdict: VerdictDuplicate, Worker: worker}
		}
		q.stats.ZombiePublishes++
		return CompleteResult{Verdict: VerdictZombie, Reason: "lease " + pub.Lease + " is not live", Worker: worker}
	}

	if pub.Fence != l.fence || t.lease != l {
		// Wrong token, or a live lease that backs another cell. Reject
		// without dropping the live lease: a forger must not be able to
		// evict the legitimate holder.
		q.stats.FenceMismatches++
		return CompleteResult{Verdict: VerdictFenceMismatch, Reason: "fencing token mismatch", Worker: worker}
	}

	if pub.ResultDigest != "" && pub.ResultDigest != pub.Canonical {
		// The worker's attestation disagrees with the bytes it shipped:
		// corruption in flight or a faulty worker. Requeue without
		// burning an attempt — the cell itself is fine.
		q.stats.DigestMismatches++
		q.requeueLocked(t)
		return CompleteResult{Verdict: VerdictDigestMismatch, Reason: "attested digest does not match payload", Worker: worker}
	}

	if dur := q.now().Sub(l.granted); dur >= 0 {
		t.bucket.leaseHist.Observe(uint64(dur / time.Millisecond))
	}

	if t.verify {
		t.votes = append(t.votes, vote{worker: worker, digest: pub.Canonical, res: pub.Result})
		q.stats.Votes++
		return q.tallyLocked(t)
	}
	return q.admitLocked(t, pub.Canonical, pub.Result)
}

// tallyLocked decides a verified task after a new vote: short of quorum
// it requeues for another independent execution; with quorum it admits a
// strict majority of the latest vote per worker (and at least two
// agreeing executions); a tie escalates to the coordinator arbiter.
func (q *Queue) tallyLocked(t *task) CompleteResult {
	if len(t.votes) < verifyQuorum {
		q.requeueLocked(t)
		return CompleteResult{Verdict: VerdictVoteRecorded}
	}
	latest := make(map[string]string, len(t.votes))
	for _, v := range t.votes {
		latest[v.worker] = v.digest
	}
	counts := make(map[string]int)
	for _, d := range latest {
		counts[d]++
	}
	for _, v := range t.votes {
		if n := counts[v.digest]; 2*n > len(latest) && n >= 2 {
			return q.admitLocked(t, v.digest, v.res)
		}
	}
	q.stats.Arbitrations++
	q.setStateLocked(t, taskArbitrating)
	return CompleteResult{Verdict: VerdictNeedArbiter, Cell: t.cell}
}

// ResolveArbiter installs the coordinator's own re-execution as the
// admitted value for a task stuck in arbitration. Reports ok=false when
// the task is unknown or no longer arbitrating.
func (q *Queue) ResolveArbiter(digest, resDigest string, res *machine.Result) (CompleteResult, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[digest]
	if !ok || t.state != taskArbitrating {
		return CompleteResult{}, false
	}
	return q.admitLocked(t, resDigest, res), true
}

// ArbiterFailed abandons an arbitration attempt (coordinator-side
// simulation error): the vote history resets and the task requeues for a
// fresh quorum, without burning the retry budget.
func (q *Queue) ArbiterFailed(digest string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[digest]
	if !ok || t.state != taskArbitrating {
		return
	}
	t.votes = nil
	q.requeueLocked(t)
}

// admitLocked finalizes a task with the admitted result, delivers it to
// every waiter, and counts the recorded votes that disagreed.
func (q *Queue) admitLocked(t *task, resDigest string, res *machine.Result) CompleteResult {
	q.setStateLocked(t, taskDone)
	t.res = res
	t.resDigest = resDigest
	for _, v := range t.votes {
		if v.digest != resDigest {
			q.stats.DivergentVotes++
		}
	}
	t.votes = nil
	q.stats.Completed++
	q.deliverLocked(t, Outcome{Res: res})
	return CompleteResult{Verdict: VerdictAdmitted, Res: res, ResDigest: resDigest, Cell: t.cell}
}

// Fail reports a worker-side execution failure. It is fenced like a
// publish: a failure under a dead lease (lapsed, or the task was already
// requeued or completed), with a fencing token other than the live
// lease's, or naming another cell than its lease's is ignored, so
// neither a late report nor a forger disturbs the real holder. Within
// the attempt budget the task requeues; exhausting it delivers the error
// to every waiter.
func (q *Queue) Fail(leaseID, fence, digest, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	t, ok := q.tasks[digest]
	if !ok || t.lease == nil || t.lease.id != leaseID || t.lease.fence != fence {
		return
	}
	t.attempts++
	if t.attempts >= t.maxAttempts {
		t.err = fmt.Errorf("campaign: cell %s failed after %d attempts: %s", t.cell.Label, t.attempts, msg)
		q.setStateLocked(t, taskFailed)
		q.stats.Failed++
		q.deliverLocked(t, Outcome{Err: t.err})
		return
	}
	q.requeueLocked(t)
}

// expireLocked requeues tasks with lapsed leases. It is the only expiry
// path: every call that grants, renews, judges or counts leases (Lease,
// Renew, Complete, Fail, Abandon, Depth) runs it first, so a crashed
// worker's cell is grantable to the next worker that asks. An expiry
// does not consume an attempt: the worker may be slow rather than
// broken; its eventual publish is judged by the fencing and attestation
// rules.
func (q *Queue) expireLocked() {
	now := q.now()
	for _, l := range q.leases {
		if !now.Before(l.deadline) {
			q.requeueLocked(q.tasks[l.digest])
			q.stats.Expired++
		}
	}
}

// deliverLocked sends the outcome to every waiter and clears the set.
func (q *Queue) deliverLocked(t *task, out Outcome) {
	for _, ch := range t.waiters {
		ch <- out
	}
	t.waiters = make(map[int]chan<- Outcome)
}

// latestVote returns the canonical digest of the worker's most recent
// vote on the task ("" if it never voted).
func (t *task) latestVote(worker string) string {
	for i := len(t.votes) - 1; i >= 0; i-- {
		if t.votes[i].worker == worker {
			return t.votes[i].digest
		}
	}
	return ""
}

// votedBy reports whether the worker already voted on the task.
func (t *task) votedBy(worker string) bool { return t.latestVote(worker) != "" }

// short truncates a digest for log lines.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
