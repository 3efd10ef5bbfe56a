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
// Determinism also powers the Byzantine layer: because a cell's correct
// result is a pure function of its digest, two honest executions agree
// byte-for-byte. Workers therefore attest a canonical result digest with
// every publish, publishes are fenced to their lease (a token minted at
// grant time, so a zombie publish from an expired lease is rejected
// rather than silently accepted), a configurable fraction of cells is
// executed by a quorum of independent workers whose digests must agree,
// and workers whose answers diverge from the admitted value accumulate
// reputation strikes until they are quarantined.
package campaign

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"secmgpu/internal/machine"
	"secmgpu/internal/metrics"
	"secmgpu/internal/sweep"
)

// Outcome is the terminal state of one queued cell, delivered to every
// campaign waiting on it.
type Outcome struct {
	Res *machine.Result
	Err error
}

// taskState is the lifecycle of one queued cell.
type taskState int

const (
	// taskPending: in the queue, waiting for a worker lease.
	taskPending taskState = iota
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

	// bucket names the fairness bucket (campaign) the task schedules
	// under; a shared cell moves to the highest-weight waiter's bucket.
	bucket string

	// deadline is the absolute point past which the work is worthless to
	// every waiter (zero = none; the most lenient waiter wins). It rides
	// on lease grants so workers bound their simulation contexts.
	deadline time.Time

	// queuedAt stamps the last transition into taskPending, feeding the
	// per-bucket queue-wait histogram at grant time.
	queuedAt time.Time

	// verify marks the task for quorum verification: it needs `needed`
	// agreeing independent executions instead of one. Set at enqueue by
	// the verify fraction, by Requeue, or permanently once any publish
	// for the cell ever diverged.
	verify bool
	needed int
	votes  []vote

	// lease is the ID of the one live lease while state == taskLeased. A
	// slow cell is re-leased only after that lease expires.
	lease string

	// waiters are delivery channels keyed by waiter ID; each channel has
	// capacity 1 and receives exactly one Outcome.
	waiters map[int]chan<- Outcome

	res *machine.Result
	// resDigest is the canonical digest of the admitted result; later
	// publishes are judged benign duplicates or divergence against it.
	resDigest string
	err       error
}

// lease is one worker's time-bounded claim on a task.
type lease struct {
	id       string
	fence    string
	digest   string
	worker   string
	deadline time.Time
	granted  time.Time // grant instant, for the lease-duration histogram
}

// tomb remembers a dead lease (completed, failed, or expired) so a
// publish arriving under it can still be attributed to its worker and
// judged: same answer as the admitted one → benign duplicate, anything
// else → zombie or divergence strike.
type tomb struct {
	worker string
	fence  string
	digest string
}

// maxLeaseTombs bounds the tombstone ring; old entries fall off and
// their publishes become unattributable zombies (still rejected).
const maxLeaseTombs = 4096

// Grant is what a worker receives from a successful lease call.
type Grant struct {
	// Lease is the opaque lease ID used for renew/complete/fail.
	Lease string
	// Fence is the lease's fencing token. A publish must present it;
	// publishes without the live fence are rejected as zombies.
	Fence string
	// Digest is the cell's content address (also the store key).
	Digest string
	// Cell is the work itself.
	Cell sweep.Cell
	// Verify marks a quorum-verification execution: the worker must
	// compute the cell fresh (no store rehydration, no cache) so its
	// vote is an independent re-execution.
	Verify bool
	// TTL is the lease duration; the worker must renew within it.
	TTL time.Duration
	// CellTimeout bounds the cell's simulation wall time (0 = unbounded).
	CellTimeout time.Duration
	// Deadline, when non-zero, is the absolute point past which no
	// waiter wants the result; workers bound their simulation context by
	// it so doomed work cancels instead of running to completion.
	Deadline time.Time
	// Attempt is 1 for the first execution of this cell, higher after
	// failures or expiries.
	Attempt int
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
	// (after divergence evidence or scrubber damage reports).
	Reverifies int
	// WorkersQuarantined counts workers quarantined for bad reputation.
	WorkersQuarantined int
}

// workerRec is the queue's per-worker reputation ledger.
type workerRec struct {
	leased      int
	completed   int
	divergent   int
	zombies     int
	quarantined bool
	reason      string
}

// WorkerHealth is one worker's reputation snapshot, surfaced on
// /v1/healthz.
type WorkerHealth struct {
	Name        string `json:"name"`
	Leased      int    `json:"leased"`
	Completed   int    `json:"completed"`
	Divergent   int    `json:"divergent,omitempty"`
	Zombies     int    `json:"zombies,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Reason      string `json:"reason,omitempty"`
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
// queue. Canonical is computed by the coordinator from the payload it
// actually received; ResultDigest is what the worker claims. The two
// disagreeing is itself evidence of a fault.
type Publish struct {
	Lease        string
	Fence        string
	Digest       string
	ResultDigest string // worker's attestation ("" = unattested legacy publish)
	Canonical    string // coordinator-computed canonical digest of Result
	Result       *machine.Result
}

// CompleteResult is the queue's decision on a publish.
type CompleteResult struct {
	Verdict Verdict
	Reason  string
	// Res and ResDigest carry the admitted result on VerdictAdmitted.
	Res       *machine.Result
	ResDigest string
	// Cell is set on VerdictNeedArbiter (re-execute it) and
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
// bucket for legacy enqueues) with a stride-scheduler pass value and the
// latency evidence for its tasks. Intra-bucket order stays FIFO via the
// queue-wide pending list.
type bucketState struct {
	name   string
	weight int
	seq    int     // creation order, the deterministic pass tie-break
	pass   float64 // stride virtual time consumed by this bucket's grants
	grants int

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
	mu      sync.Mutex
	tasks   map[string]*task
	pending []string // FIFO of pending task digests (intra-bucket order)
	leases  map[string]*lease
	tombs   map[string]tomb
	tombLog []string // insertion order, capped at maxLeaseTombs
	ttl     time.Duration
	now     func() time.Time

	// buckets are the weighted-fair scheduling groups; vtime is the pass
	// of the most recent grant, the join point for idle buckets so a
	// returning bucket cannot monopolize grants with a stale low pass.
	buckets map[string]*bucketState
	vtime   float64

	// verifyFraction in [0,1] selects cells for quorum verification by
	// their digest; quorum is how many votes a verified cell needs.
	verifyFraction float64
	quorum         int

	// divergenceLimit / zombieLimit quarantine a worker once its strike
	// counters reach them (0 disables that limit).
	divergenceLimit int
	zombieLimit     int
	onQuarantine    func(worker, reason string)

	workers map[string]*workerRec

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
		tombs:   make(map[string]tomb),
		workers: make(map[string]*workerRec),
		buckets: make(map[string]*bucketState),
		ttl:     ttl,
		quorum:  2,
		now:     time.Now,
	}
}

// ConfigureVerification sets the fraction of cells selected for quorum
// verification (clamped to [0,1]) and the quorum size (minimum 2).
func (q *Queue) ConfigureVerification(fraction float64, quorum int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	if quorum < 2 {
		quorum = 2
	}
	q.verifyFraction = fraction
	q.quorum = quorum
}

// ConfigureReputation sets the strike limits past which a worker is
// quarantined (0 disables the respective limit).
func (q *Queue) ConfigureReputation(divergenceLimit, zombieLimit int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.divergenceLimit = divergenceLimit
	q.zombieLimit = zombieLimit
}

// OnQuarantine registers a hook called when a worker transitions into
// quarantine. The hook runs with the queue lock held and must not call
// back into the queue.
func (q *Queue) OnQuarantine(fn func(worker, reason string)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.onQuarantine = fn
}

// TTL returns the lease duration.
func (q *Queue) TTL() time.Duration { return q.ttl }

// Stats returns a snapshot of the activity counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Workers returns per-worker reputation snapshots, sorted by name.
func (q *Queue) Workers() []WorkerHealth {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]WorkerHealth, 0, len(q.workers))
	for name, rec := range q.workers {
		out = append(out, WorkerHealth{
			Name:        name,
			Leased:      rec.leased,
			Completed:   rec.completed,
			Divergent:   rec.divergent,
			Zombies:     rec.zombies,
			Quarantined: rec.quarantined,
			Reason:      rec.reason,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// QuarantineWorker forces a worker into quarantine (used by control-log
// replay and operators). Idempotent; does not fire the OnQuarantine hook,
// since replayed quarantines are already journaled.
func (q *Queue) QuarantineWorker(worker, reason string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec := q.workerLocked(worker)
	if rec.quarantined {
		return
	}
	rec.quarantined = true
	rec.reason = reason
	q.stats.WorkersQuarantined++
	q.drainWorkerLocked(worker)
}

// Depth returns the number of pending and leased tasks.
func (q *Queue) Depth() (pending, leased int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, t := range q.tasks {
		switch t.state {
		case taskPending:
			pending++
		case taskLeased:
			leased++
		}
	}
	return pending, leased
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
// cell timeout and deadline, the highest-weight bucket. The returned
// waiter ID cancels the interest via Abandon. ch must have capacity
// >= 1; it receives exactly one Outcome unless abandoned first.
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
		if cur := q.buckets[t.bucket]; cur == nil || b.weight > cur.weight {
			t.bucket = b.name
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
		state:       taskPending,
		maxAttempts: maxAttempts,
		cellTimeout: opts.CellTimeout,
		bucket:      b.name,
		deadline:    opts.Deadline,
		queuedAt:    q.now(),
		waiters:     map[int]chan<- Outcome{waiterID: ch},
	}
	if q.verifyFraction > 0 && digestFraction(digest) < q.verifyFraction {
		t.verify = true
		t.needed = q.quorum
		q.stats.VerifiedCells++
	}
	q.tasks[digest] = t
	q.pending = append(q.pending, digest)
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
// its bucket's pass to the current virtual time if it went idle, and
// appends to the FIFO.
func (q *Queue) requeueLocked(t *task) {
	t.state = taskPending
	t.queuedAt = q.now()
	if b := q.buckets[t.bucket]; b != nil && b.pass < q.vtime {
		b.pass = q.vtime
	}
	q.pending = append(q.pending, t.digest)
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
// to divergence evidence or a scrubber damage report. The stale result
// stays visible to dedup hits until the fresh quorum admits a value.
// Reports ok=false when the digest is unknown or the task is not done.
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
	if t.needed < q.quorum {
		t.needed = q.quorum
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
	t, ok := q.tasks[digest]
	if !ok {
		return
	}
	delete(t.waiters, waiterID)
	if len(t.waiters) == 0 && t.state == taskPending && len(t.votes) == 0 {
		delete(q.tasks, digest)
		q.removePending(digest)
		q.stats.Abandoned++
	}
}

// ErrWorkerQuarantined is returned by Lease (and surfaced as HTTP 403 to
// remote workers) when the worker's reputation put it in quarantine.
var ErrWorkerQuarantined = fmt.Errorf("campaign: worker quarantined")

// Lease grants a pending task to worker under a fresh lease, or reports
// ok=false when nothing is grantable. Expired leases are collected
// first, so a crashed worker's task is grantable as soon as its TTL
// lapses. A quarantined worker gets ErrWorkerQuarantined.
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
func (q *Queue) Lease(worker string) (Grant, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	rec := q.workerLocked(worker)
	if rec.quarantined {
		return Grant{}, false, fmt.Errorf("%w: %s", ErrWorkerQuarantined, rec.reason)
	}

	// One pass over the FIFO: prune dead entries and remember, per
	// bucket, the first grantable index (preferring tasks the worker has
	// not voted on; voted tasks are fallbacks).
	type candidate struct{ pick, fallback int }
	cands := make(map[string]*candidate)
	kept := q.pending[:0]
	for _, digest := range q.pending {
		t, ok := q.tasks[digest]
		if !ok || t.state != taskPending {
			continue // pruned or completed entries fall out here
		}
		kept = append(kept, digest)
		c, ok := cands[t.bucket]
		if !ok {
			c = &candidate{pick: -1, fallback: -1}
			cands[t.bucket] = c
		}
		if c.pick >= 0 {
			continue
		}
		if t.verify && t.votedBy(worker) {
			if c.fallback < 0 {
				c.fallback = len(kept) - 1
			}
			continue
		}
		c.pick = len(kept) - 1
	}
	q.pending = kept

	// Weighted-fair choice: lowest pass among buckets with a preferred
	// candidate; buckets holding only already-voted work are a second
	// tier so independence is preserved across bucket lines.
	chooseBucket := func(useFallback bool) *bucketState {
		var best *bucketState
		for name, c := range cands {
			idx := c.pick
			if useFallback {
				idx = c.fallback
			}
			if idx < 0 {
				continue
			}
			b := q.buckets[name]
			if b == nil { // legacy task with no registered bucket
				b = q.bucketLocked(name, weightNormal)
			}
			if best == nil || b.pass < best.pass || (b.pass == best.pass && b.seq < best.seq) {
				best = b
			}
		}
		return best
	}
	b := chooseBucket(false)
	useFallback := false
	if b == nil {
		b = chooseBucket(true)
		useFallback = true
	}
	if b == nil {
		return Grant{}, false, nil
	}
	c := cands[b.name]
	idx := c.pick
	if useFallback {
		idx = c.fallback
	}
	digest := q.pending[idx]
	q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
	t := q.tasks[digest]

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
		digest:   digest,
		worker:   worker,
		deadline: now.Add(q.ttl),
		granted:  now,
	}
	q.leases[l.id] = l
	t.state = taskLeased
	t.lease = l.id
	q.stats.Leased++
	rec.leased++
	return Grant{
		Lease:       l.id,
		Fence:       l.fence,
		Digest:      t.digest,
		Cell:        t.cell,
		Verify:      t.verify,
		TTL:         q.ttl,
		CellTimeout: t.cellTimeout,
		Deadline:    t.deadline,
		Attempt:     t.attempts + 1,
	}, true, nil
}

// observeLeaseLocked records a completed lease's duration in the task's
// bucket histogram.
func (q *Queue) observeLeaseLocked(t *task, l *lease) {
	dur := q.now().Sub(l.granted)
	if dur < 0 || l.granted.IsZero() {
		return
	}
	if b := q.buckets[t.bucket]; b != nil {
		b.leaseHist.Observe(uint64(dur / time.Millisecond))
	}
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

// Renew extends a live lease by the queue TTL.
func (q *Queue) Renew(leaseID string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	l, ok := q.leases[leaseID]
	if !ok {
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
//     the cell and strikes the publisher.
//  3. Fencing: a dead lease (expired/superseded) is a zombie publish —
//     unless it is a retried RPC re-shipping the worker's own recorded
//     vote. A live lease with the wrong fence or wrong digest is
//     rejected without disturbing the real leaseholder.
//  4. Attestation: the worker's claimed result digest must match the
//     payload the coordinator actually received.
//  5. Admission: unverified cells admit immediately; verified cells
//     record a vote and requeue until the quorum agrees (majority of
//     latest votes per worker), tying quorums escalate to the arbiter.
//
// Zombie and divergence rejections strike the attributed worker's
// reputation; past the configured limits the worker is quarantined.
func (q *Queue) Complete(pub Publish) CompleteResult {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()

	var worker, fence string
	var pubLease *lease
	live := false
	if l, ok := q.leases[pub.Lease]; ok {
		worker, fence, live = l.worker, l.fence, true
		pubLease = l
	} else if tb, ok := q.tombs[pub.Lease]; ok {
		worker, fence = tb.worker, tb.fence
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
		q.strikeDivergenceLocked(worker, "published a result diverging from the admitted value for cell "+t.cell.Label)
		if !t.verify {
			t.verify = true
			t.needed = q.quorum
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
		q.strikeZombieLocked(worker, "published under a dead lease for cell "+t.cell.Label)
		return CompleteResult{Verdict: VerdictZombie, Reason: "lease " + pub.Lease + " is not live", Worker: worker}
	}

	if pub.Fence != fence || !t.holds(pub.Lease) {
		// Wrong token, or a live lease that backs another cell. Reject
		// without dropping the live lease: a forger must not be able to
		// evict the legitimate holder.
		q.stats.FenceMismatches++
		return CompleteResult{Verdict: VerdictFenceMismatch, Reason: "fencing token mismatch", Worker: worker}
	}

	if pub.ResultDigest != "" && pub.ResultDigest != pub.Canonical {
		// The worker's attestation disagrees with the bytes it shipped:
		// corruption in flight or a lying worker. Requeue without
		// burning an attempt — the cell itself is fine.
		q.stats.DigestMismatches++
		q.releaseLocked(pub.Lease)
		q.strikeDivergenceLocked(worker, "attested digest does not match payload for cell "+t.cell.Label)
		return CompleteResult{Verdict: VerdictDigestMismatch, Reason: "attested digest does not match payload", Worker: worker}
	}

	q.observeLeaseLocked(t, pubLease)
	q.dropLeaseLocked(pub.Lease)

	if t.verify {
		t.votes = append(t.votes, vote{worker: worker, digest: pub.Canonical, res: pub.Result})
		q.stats.Votes++
		return q.tallyLocked(t)
	}

	q.workerLocked(worker).completed++
	return q.admitLocked(t, pub.Canonical, pub.Result)
}

// tallyLocked decides a verified task after a new vote: short of quorum
// it requeues for another independent execution; with quorum it admits a
// strict majority of the latest vote per worker (and at least two
// agreeing executions); a tie escalates to the coordinator arbiter.
func (q *Queue) tallyLocked(t *task) CompleteResult {
	if len(t.votes) < t.needed {
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
	majority := ""
	for d, n := range counts {
		if 2*n > len(latest) && n >= 2 {
			majority = d
			break
		}
	}
	if majority == "" {
		q.stats.Arbitrations++
		t.state = taskArbitrating
		return CompleteResult{Verdict: VerdictNeedArbiter, Cell: t.cell}
	}
	var res *machine.Result
	for _, v := range t.votes {
		if v.digest == majority {
			res = v.res
			break
		}
	}
	return q.admitLocked(t, majority, res)
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
// every waiter, and strikes every worker whose recorded vote disagreed.
func (q *Queue) admitLocked(t *task, resDigest string, res *machine.Result) CompleteResult {
	q.removePending(t.digest)
	t.state = taskDone
	t.res = res
	t.resDigest = resDigest
	blamed := make(map[string]bool)
	for _, v := range t.votes {
		if v.digest == resDigest {
			if !blamed[v.worker] {
				q.workerLocked(v.worker).completed++
				blamed[v.worker] = true
			}
			continue
		}
		q.stats.DivergentVotes++
		q.strikeDivergenceLocked(v.worker, "quorum rejected its result for cell "+t.cell.Label)
	}
	t.votes = nil
	q.stats.Completed++
	q.deliverLocked(t, Outcome{Res: res})
	return CompleteResult{Verdict: VerdictAdmitted, Res: res, ResDigest: resDigest, Cell: t.cell}
}

// Fail reports a worker-side execution failure. A failure under a stale
// lease is ignored (the task was already requeued or completed), and so
// is one naming another cell than its lease's. Within the attempt budget
// the task requeues; exhausting it delivers the error to every waiter.
func (q *Queue) Fail(leaseID, digest, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, live := q.leases[leaseID]
	if !live || l.digest != digest {
		return
	}
	q.dropLeaseLocked(leaseID)
	t, ok := q.tasks[digest]
	if !ok || !t.holds(leaseID) {
		return
	}
	t.attempts++
	if t.attempts >= t.maxAttempts {
		t.state = taskFailed
		t.err = fmt.Errorf("campaign: cell %s failed after %d attempts: %s", t.cell.Label, t.attempts, msg)
		q.stats.Failed++
		q.deliverLocked(t, Outcome{Err: t.err})
		return
	}
	q.requeueLocked(t)
}

// ExpireLeases requeues every task whose lease deadline passed and
// returns how many expired. The coordinator calls it periodically; Lease
// and Renew also collect lazily.
func (q *Queue) ExpireLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked()
}

// expireLocked requeues tasks with lapsed leases. An expiry does not
// consume an attempt: the worker may be slow rather than broken; its
// eventual publish is judged by the fencing and attestation rules.
func (q *Queue) expireLocked() int {
	now := q.now()
	expired := 0
	for id, l := range q.leases {
		if !now.Before(l.deadline) {
			q.releaseLocked(id)
			expired++
		}
	}
	q.stats.Expired += expired
	return expired
}

// releaseLocked retires a live lease and, when it backs its task,
// returns the task to pending without burning an attempt.
func (q *Queue) releaseLocked(leaseID string) {
	l, ok := q.leases[leaseID]
	if !ok {
		return
	}
	q.dropLeaseLocked(leaseID)
	if t, ok := q.tasks[l.digest]; ok && t.holds(leaseID) {
		q.requeueLocked(t)
	}
}

// workerLocked returns (creating if needed) the reputation record.
func (q *Queue) workerLocked(worker string) *workerRec {
	rec, ok := q.workers[worker]
	if !ok {
		rec = &workerRec{}
		q.workers[worker] = rec
	}
	return rec
}

// strikeDivergenceLocked records a divergence strike and quarantines the
// worker past the limit. Unattributable publishes strike nobody.
func (q *Queue) strikeDivergenceLocked(worker, reason string) {
	if worker == "" {
		return
	}
	rec := q.workerLocked(worker)
	rec.divergent++
	if q.divergenceLimit > 0 && rec.divergent >= q.divergenceLimit {
		q.quarantineLocked(worker, rec, reason)
	}
}

// strikeZombieLocked records a zombie-publish strike.
func (q *Queue) strikeZombieLocked(worker, reason string) {
	if worker == "" {
		return
	}
	rec := q.workerLocked(worker)
	rec.zombies++
	if q.zombieLimit > 0 && rec.zombies >= q.zombieLimit {
		q.quarantineLocked(worker, rec, reason)
	}
}

// quarantineLocked marks a worker quarantined, drains its live leases
// back to pending (burning no attempts), and fires the hook.
func (q *Queue) quarantineLocked(worker string, rec *workerRec, reason string) {
	if rec.quarantined {
		return
	}
	rec.quarantined = true
	rec.reason = reason
	q.stats.WorkersQuarantined++
	q.drainWorkerLocked(worker)
	if q.onQuarantine != nil {
		q.onQuarantine(worker, reason)
	}
}

// drainWorkerLocked requeues every task the worker currently leases.
func (q *Queue) drainWorkerLocked(worker string) {
	for id, l := range q.leases {
		if l.worker == worker {
			q.releaseLocked(id)
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

// dropLeaseLocked retires a lease into the tombstone ring so later
// publishes under it stay attributable.
func (q *Queue) dropLeaseLocked(leaseID string) {
	l, ok := q.leases[leaseID]
	if !ok {
		return
	}
	delete(q.leases, leaseID)
	q.tombs[leaseID] = tomb{worker: l.worker, fence: l.fence, digest: l.digest}
	q.tombLog = append(q.tombLog, leaseID)
	if len(q.tombLog) > maxLeaseTombs {
		delete(q.tombs, q.tombLog[0])
		q.tombLog = q.tombLog[1:]
	}
}

// removePending deletes digest from the pending FIFO if queued.
func (q *Queue) removePending(digest string) {
	for i, d := range q.pending {
		if d == digest {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return
		}
	}
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

// holds reports whether leaseID is the task's live lease.
func (t *task) holds(leaseID string) bool { return t.state == taskLeased && t.lease == leaseID }

// short truncates a digest for log lines.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
