package campaign

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/machine"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// State is a campaign's lifecycle phase.
type State string

const (
	// StateRunning: experiments are executing (cells may be queued,
	// leased, or waiting on workers).
	StateRunning State = "running"
	// StateDone: every experiment finished and its table is available.
	StateDone State = "done"
	// StateFailed: at least one experiment errored; finished tables are
	// still available.
	StateFailed State = "failed"
	// StateCanceled: the campaign was cancelled before finishing.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateRunning }

// CellProgress counts a campaign's cell traffic. Total cell count is not
// known up front — experiments request cells as their sweeps unfold — so
// progress is reported as traffic so far, not a fraction.
type CellProgress struct {
	// Delegated cells were placed on the work queue.
	Delegated int `json:"delegated"`
	// Completed and Failed are delegated cells that came back.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// CacheHits and StoreHits were served without queueing: from the
	// campaign engine's memory, or rehydrated from the shared store.
	CacheHits int `json:"cache_hits"`
	StoreHits int `json:"store_hits"`
}

// Status is a campaign's externally visible state, the unit of the
// status API.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Error summarizes why a failed campaign failed.
	Error string `json:"error,omitempty"`
	Spec  Spec   `json:"spec"`
	// ExperimentsDone / ExperimentsTotal track whole experiments;
	// ExperimentErrors maps failed experiment names to their errors.
	ExperimentsDone  int               `json:"experiments_done"`
	ExperimentsTotal int               `json:"experiments_total"`
	ExperimentErrors map[string]string `json:"experiment_errors,omitempty"`
	Cells            CellProgress      `json:"cells"`
	Created          time.Time         `json:"created"`
	Finished         time.Time         `json:"finished,omitzero"`
	// Recovered marks a campaign re-submitted (or tombstoned) from the
	// control journal by a restarted coordinator.
	Recovered bool `json:"recovered,omitempty"`
	// Deadline is the campaign's absolute wall-clock bound (zero =
	// none); past it the campaign fails with partial tables.
	Deadline time.Time `json:"deadline,omitzero"`
}

// TableResult is one finished experiment table, rendered both ways so
// clients need no table code.
type TableResult struct {
	Name  string `json:"name"`
	ID    string `json:"table_id"`
	Title string `json:"title"`
	Text  string `json:"text"`
	CSV   string `json:"csv"`
}

// Options configures a Coordinator.
type Options struct {
	// Store is the shared content-addressed result store. Optional but
	// strongly recommended: with it, published results are durable,
	// repeated campaigns rehydrate instead of re-simulating, completion
	// is idempotent across coordinator restarts, and the coordinator
	// itself journals campaign lifecycles to <store>/coordinator.jsonl —
	// a restarted coordinator re-submits campaigns that were running.
	Store *store.Store
	// LeaseTTL bounds how long a worker may hold a cell without
	// renewing (default 30s).
	LeaseTTL time.Duration
	// AuthToken, when non-empty, requires every API request except
	// GET /v1/healthz to carry "Authorization: Bearer <AuthToken>"
	// (compared in constant time). Unauthenticated peers can neither
	// consume the queue nor poison it.
	AuthToken string
	// TLSCertFile / TLSKeyFile, when both set, make Serve terminate TLS.
	TLSCertFile string
	TLSKeyFile  string
	// Listener, when set, makes Serve serve on it instead of binding
	// addr (tests bind port 0 and read the address back).
	Listener net.Listener
	// Logf receives operational log lines (nil silences them).
	Logf func(format string, args ...any)

	// VerifyFraction in [0,1] selects that fraction of cells (by digest,
	// deterministically) for quorum verification: each is executed by
	// two independent workers and only an agreeing majority is admitted.
	// 0 disables the lottery; cells with divergence evidence are always
	// verified.
	VerifyFraction float64

	// MaxCampaigns bounds concurrently running campaigns; over-limit
	// submissions are refused with ErrOverloaded (HTTP 429 +
	// Retry-After) instead of queued without bound (0 = unlimited).
	MaxCampaigns int
	// MaxQueueDepth bounds pending cells on the work queue; submissions
	// arriving above it are refused with ErrOverloaded (0 = unlimited).
	MaxQueueDepth int

	// Drain, when non-nil, makes Serve perform a graceful drain when
	// the channel delivers (or closes): stop granting leases, let
	// in-flight leases finish or expire, journal a clean-shutdown
	// record, exit. The wait is bounded by 2×LeaseTTL+5s: every honest
	// lease has finished, renewed, or expired by then. Wired to SIGTERM
	// by secbench -serve.
	Drain <-chan struct{}
}

// Coordinator owns the work queue and the set of campaigns. Construct
// with NewCoordinator, expose over HTTP with Handler, and stop with
// Close.
type Coordinator struct {
	queue *Queue
	store *store.Store
	token string
	logf  func(string, ...any)

	ctl       *store.Log // control journal (nil without a store)
	recovered int        // campaigns re-submitted from the journal at boot

	// Admission control and drain.
	maxCampaigns  int
	maxQueueDepth int
	rejected      atomic.Int64 // submissions refused with 429
	draining      atomic.Bool  // SIGTERM drain in progress: no new leases
	cleanBoot     bool         // previous process exited via drain record

	mu        sync.Mutex
	campaigns map[string]*Campaign
	idem      map[string]string // idempotency key -> campaign ID
	seq       int

	scrubMu sync.Mutex
	scrub   ScrubHealth

	// bg cancels background re-executions (arbitration, re-verification)
	// on Close.
	bg       context.Context
	bgCancel context.CancelFunc
}

// ScrubHealth counts the coordinator's repairs of admitted results,
// surfaced on /v1/healthz. Corruption at rest needs no counter here:
// store.Get verifies every read and quarantines a bad object, so the
// cell re-simulates in whichever process next needs it.
type ScrubHealth struct {
	// Healed counts cells re-queued for quorum re-verification because a
	// worker published a value divergent from the admitted one; Replaced
	// counts store objects overwritten because a quorum admitted a
	// different value than the one at rest.
	Healed   int `json:"healed"`
	Replaced int `json:"replaced"`
}

// Campaign is one submitted experiment set and its execution state. A
// tombstone (terminal campaign rehydrated from the control journal after
// a restart) has no engine; its status is served from the journal and
// its tables can be regenerated by re-submitting the identical spec,
// which the store serves without re-simulation.
type Campaign struct {
	id      string
	spec    Spec
	engine  *sweep.Engine
	journal *store.Journal
	cancel  context.CancelFunc

	// deadline is the absolute wall-clock bound derived from
	// spec.Deadline at launch (zero = none). It rides on every cell the
	// campaign delegates.
	deadline time.Time

	mu           sync.Mutex
	state        State
	err          string
	created      time.Time
	finished     time.Time
	expDone      int
	expErrs      map[string]string
	tables       []TableResult
	cells        CellProgress
	recovered    bool
	userCanceled bool
}

// NewCoordinator returns a running coordinator. With a store, it first
// replays the control journal: terminal campaigns become queryable
// tombstones and campaigns that were running when the previous process
// died are re-submitted under their original IDs (their persisted cells
// rehydrate from the store, so no finished work re-executes). The
// coordinator runs no background loop: the queue collects lapsed leases
// whenever it is asked for work or for its depth.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		queue:         NewQueue(opts.LeaseTTL),
		store:         opts.Store,
		token:         opts.AuthToken,
		logf:          opts.Logf,
		maxCampaigns:  opts.MaxCampaigns,
		maxQueueDepth: opts.MaxQueueDepth,
		campaigns:     make(map[string]*Campaign),
		idem:          make(map[string]string),
	}
	c.bg, c.bgCancel = context.WithCancel(context.Background())
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	c.queue.ConfigureVerification(opts.VerifyFraction)
	if c.store != nil {
		c.recover()
	}
	return c
}

// recover replays the control journal and reopens it for appending.
// Journal problems degrade to a memory-only coordinator (logged loudly)
// rather than refusing to serve: results are still durable in the store.
func (c *Coordinator) recover() {
	path := c.store.ControlLogPath()
	rep, err := replayControlLog(path)
	if err != nil {
		c.logf("campaign: control journal unreadable, running without durability: %v", err)
		return
	}
	if rep.corrupt > 0 {
		c.logf("campaign: control journal: %d corrupt record(s) tolerated", rep.corrupt)
	}
	ctl, err := store.OpenLog(path)
	if err != nil {
		c.logf("campaign: control journal unwritable, running without durability: %v", err)
	} else {
		c.ctl = ctl
	}
	c.seq = rep.maxSeq()
	c.cleanBoot = rep.cleanShutdown()
	if c.cleanBoot {
		c.logf("campaign: previous coordinator shut down cleanly (drained)")
	}

	// Terminal campaigns become tombstones so status queries and
	// idempotent re-submissions survive the restart.
	for _, id := range rep.order {
		hist := rep.byID[id]
		if hist.submit.Key != "" {
			c.idem[hist.submit.Key] = id
		}
		if hist.terminal == nil && !hist.canceled {
			continue // re-submitted below
		}
		camp := &Campaign{
			id:        id,
			spec:      hist.submit.Spec,
			cancel:    func() {},
			created:   hist.submit.Created,
			recovered: true,
			expErrs:   make(map[string]string),
		}
		switch {
		case hist.terminal != nil:
			camp.state = hist.terminal.State
			camp.err = hist.terminal.Error
			camp.finished = hist.terminal.At
		default: // cancelled, never unwound
			camp.state = StateCanceled
			camp.err = "canceled"
		}
		c.campaigns[id] = camp
	}

	// Campaigns that were running are re-submitted under their original
	// IDs; the store rehydrates every persisted cell.
	for _, sub := range rep.resubmit() {
		if _, err := c.launch(sub.Spec, sub.ID, sub.Key, false, sub.Created); err != nil {
			c.logf("campaign %s: recovery re-submit failed: %v", sub.ID, err)
			continue
		}
		c.recovered++
	}
	if c.recovered > 0 || len(rep.order) > 0 {
		c.logf("campaign: control journal replayed: %d campaign(s) on record, recovered %d running campaign(s)",
			len(rep.order), c.recovered)
	}
}

// Recovered returns how many running campaigns this coordinator
// re-submitted from the control journal at startup.
func (c *Coordinator) Recovered() int { return c.recovered }

// CleanShutdown reports whether the previous coordinator process exited
// through a graceful drain (the control journal ends with a drain
// record) rather than a crash.
func (c *Coordinator) CleanShutdown() bool { return c.cleanBoot }

// Draining reports whether a graceful drain is in progress: lease grants
// and submissions are refused while in-flight leases finish.
func (c *Coordinator) Draining() bool { return c.draining.Load() }

// drainTimeout bounds the drain Serve runs on Options.Drain: by
// 2×LeaseTTL+5s every honest lease has finished, renewed, or expired.
func (c *Coordinator) drainTimeout() time.Duration { return 2*c.queue.TTL() + 5*time.Second }

// Drain performs a graceful shutdown: new lease grants and submissions
// stop (HTTP 503 + Retry-After), in-flight leases run to completion or
// TTL expiry, and a drain record is journaled so the successor can tell
// clean shutdown from crash. ctx bounds the wait; on timeout the drain
// record is still written (remaining leases have been expired and
// requeued, nothing was abandoned mid-grant). Idempotent.
func (c *Coordinator) Drain(ctx context.Context) error {
	if !c.draining.CompareAndSwap(false, true) {
		return nil
	}
	_, leased := c.queue.Depth()
	c.logf("campaign: draining: refusing new leases and submissions, waiting for %d in-flight lease(s)", leased)
	var waitErr error
	for {
		if _, leased = c.queue.Depth(); leased == 0 {
			break
		}
		select {
		case <-ctx.Done():
			waitErr = ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
		if waitErr != nil {
			c.logf("campaign: drain wait expired with %d lease(s) still live; journaling drain anyway", leased)
			break
		}
	}
	c.mu.Lock()
	running := 0
	for _, camp := range c.campaigns {
		if !camp.status().State.Terminal() {
			running++
		}
	}
	c.mu.Unlock()
	if err := c.ctl.Append(ctlDrain, ctlDrainRec{At: time.Now().UTC(), Campaigns: running}); err != nil {
		c.logf("campaign: control journal append failed (drain will look like a crash): %v", err)
		return err
	}
	c.logf("campaign: drained cleanly (%d campaign(s) still running will re-submit on next boot)", running)
	return waitErr
}

// Close cancels every running campaign and any arbitration in flight.
// Shutdown is not an outcome: no terminal records are journaled, so a
// successor coordinator re-submits whatever was running.
func (c *Coordinator) Close() {
	c.bgCancel()
	c.mu.Lock()
	campaigns := make([]*Campaign, 0, len(c.campaigns))
	for _, camp := range c.campaigns {
		campaigns = append(campaigns, camp)
	}
	c.mu.Unlock()
	for _, camp := range campaigns {
		camp.cancel()
	}
	c.ctl.Close()
}

// Queue exposes the work queue (used by the API layer and tests).
func (c *Coordinator) Queue() *Queue { return c.queue }

// ErrOverloaded is the sentinel for refused submissions: the coordinator
// is at its admission limits (or draining) and the caller should retry
// later. Surfaced to HTTP clients as 429 (or 503 while draining) with a
// Retry-After header.
var ErrOverloaded = errors.New("campaign: coordinator overloaded")

// OverloadError is a refusal with a retry hint. errors.Is matches
// ErrOverloaded.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("campaign: coordinator overloaded: %s (retry after %v)", e.Reason, e.RetryAfter)
}

func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// admit applies the admission limits to a new submission. Called without
// c.mu; the counts are advisory (a race admitting one extra campaign is
// harmless — the limits shed load, they are not invariants).
func (c *Coordinator) admit() error {
	if c.draining.Load() {
		return &OverloadError{Reason: "coordinator is draining", RetryAfter: 5 * time.Second}
	}
	if c.maxCampaigns > 0 {
		running := 0
		c.mu.Lock()
		for _, camp := range c.campaigns {
			camp.mu.Lock()
			if camp.state == StateRunning {
				running++
			}
			camp.mu.Unlock()
		}
		c.mu.Unlock()
		if running >= c.maxCampaigns {
			return &OverloadError{
				Reason:     fmt.Sprintf("%d of %d campaign slots busy", running, c.maxCampaigns),
				RetryAfter: retryAfterHint(running),
			}
		}
	}
	if c.maxQueueDepth > 0 {
		if pending, _ := c.queue.Depth(); pending >= c.maxQueueDepth {
			return &OverloadError{
				Reason:     fmt.Sprintf("queue depth %d at limit %d", pending, c.maxQueueDepth),
				RetryAfter: retryAfterHint(pending / 16),
			}
		}
	}
	return nil
}

// retryAfterHint scales the Retry-After hint with the backlog, clamped
// to [1s, 30s].
func retryAfterHint(backlog int) time.Duration {
	d := time.Duration(backlog) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// Submit validates spec, registers a campaign, and starts executing it
// asynchronously. The returned status carries the assigned campaign ID.
func (c *Coordinator) Submit(spec Spec) (Status, error) {
	return c.SubmitKeyed(spec, "")
}

// SubmitKeyed is Submit with an idempotency key: re-submitting the same
// key returns the original campaign's status instead of starting a
// duplicate, which makes submission safe to retry over a faulty network
// (the retried request may be a duplicate of one that already landed).
// Keys survive coordinator restarts via the control journal.
func (c *Coordinator) SubmitKeyed(spec Spec, key string) (Status, error) {
	if key != "" {
		c.mu.Lock()
		id, ok := c.idem[key]
		c.mu.Unlock()
		if ok {
			if st, found := c.Campaign(id); found {
				return st, nil
			}
		}
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Status{}, err
	}
	// Admission limits apply to genuinely new work only: idempotent
	// re-submissions returned above, and recovery re-submissions call
	// launch directly (refusing to recover journaled work would turn a
	// restart into data loss).
	if err := c.admit(); err != nil {
		c.rejected.Add(1)
		c.logf("campaign: submission refused: %v", err)
		return Status{}, err
	}
	return c.launch(spec, "", key, true, time.Time{})
}

// launch registers and starts one campaign. forcedID non-empty re-uses a
// journaled identity during recovery, with created restoring the
// original submission time (zero = now); journal=false suppresses the
// submit record (recovery replays existing records, it does not mint new
// ones).
func (c *Coordinator) launch(spec Spec, forcedID, key string, journal bool, created time.Time) (Status, error) {
	ctx, cancel := context.WithCancel(context.Background())
	engine := sweep.New(spec.Parallelism)
	engine.SetStore(c.store)

	if created.IsZero() {
		created = time.Now().UTC()
	}
	camp := &Campaign{
		spec:    spec,
		engine:  engine,
		cancel:  cancel,
		state:   StateRunning,
		created: created,
		expErrs: make(map[string]string),
	}
	if spec.Deadline > 0 {
		// The budget counts from first submission: a recovered campaign
		// keeps its journaled creation time, so a restart cannot launder
		// an expired deadline back to life.
		camp.deadline = created.Add(spec.Deadline)
		dctx, dcancel := context.WithDeadline(ctx, camp.deadline)
		ctx = dctx
		camp.cancel = func() { dcancel(); cancel() }
	}

	c.mu.Lock()
	if forcedID != "" {
		camp.id = forcedID
		camp.recovered = true
	} else {
		c.seq++
		camp.id = fmt.Sprintf("c%s-%04d", camp.created.Format("20060102-150405"), c.seq)
	}
	c.campaigns[camp.id] = camp
	if key != "" {
		c.idem[key] = camp.id
	}
	c.mu.Unlock()

	if journal {
		if err := c.ctl.Append(ctlSubmit, ctlSubmitRec{
			ID: camp.id, Key: key, Spec: spec, Created: camp.created,
		}); err != nil {
			c.logf("campaign %s: control journal append failed (campaign will not survive a restart): %v", camp.id, err)
		}
	}

	engine.SetSimulator(c.delegate(ctx, camp))
	if c.store != nil {
		info := store.RunInfo{
			ID: camp.id, SimDigest: store.BinaryDigest(),
			Exps: spec.Experiments, GPUs: spec.GPUs, Scale: spec.Scale,
			Seed: spec.Seed, Workloads: spec.Workloads,
		}
		if j, err := c.openRunJournal(camp.id, info); err != nil {
			c.logf("campaign %s: journal unavailable: %v", camp.id, err)
		} else {
			camp.journal = j
			engine.SetJournal(j)
		}
	}

	c.logf("campaign %s: submitted (%d experiments, scale %v, %d GPUs)",
		camp.id, len(spec.Experiments), spec.Scale, spec.GPUs)
	go c.run(ctx, camp)
	return camp.status(), nil
}

// openRunJournal creates the campaign's per-run cell journal, appending
// to an existing one when the campaign is a recovery re-submission.
func (c *Coordinator) openRunJournal(id string, info store.RunInfo) (*store.Journal, error) {
	path := c.store.JournalPath(id)
	j, err := store.CreateJournal(path, info)
	if err == nil {
		return j, nil
	}
	if _, statErr := os.Stat(path); statErr == nil {
		return store.OpenJournalAppend(path, info)
	}
	return nil, err
}

// run executes the campaign's experiments in order, mirroring what a
// single-process secbench run does — same runners, same sweep engine
// semantics — except that cell execution is delegated to leased workers.
func (c *Coordinator) run(ctx context.Context, camp *Campaign) {
	defer camp.cancel()
	p := camp.spec.params()
	p.Engine = camp.engine
	canceled, expired := false, false
	for _, name := range camp.spec.Experiments {
		runner, err := experiments.Lookup(name) // validated at submit; a miss here is a bug
		if err != nil {
			camp.experimentFailed(name, err)
			continue
		}
		table, err := runner(ctx, p)
		if ctx.Err() != nil {
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				expired = true
				c.logf("campaign %s: deadline %v exceeded; failing with partial tables", camp.id, camp.spec.Deadline)
			} else {
				canceled = true
			}
			break
		}
		if err != nil {
			c.logf("campaign %s: %s failed: %v", camp.id, name, err)
			camp.experimentFailed(name, err)
			continue
		}
		camp.experimentDone(name, table)
		c.logf("campaign %s: %s done", camp.id, name)
	}
	camp.finish(canceled, expired)
	c.journalTerminal(camp)
	if err := camp.journal.Err(); err != nil {
		c.logf("campaign %s: journal writes failed (results are still persisted): %v", camp.id, err)
	}
	camp.journal.Close()
	st := camp.status()
	c.logf("campaign %s: %s (%d/%d experiments, %d cells delegated, %d completed, %d failed)",
		camp.id, st.State, st.ExperimentsDone, st.ExperimentsTotal,
		st.Cells.Delegated, st.Cells.Completed, st.Cells.Failed)
}

// journalTerminal records a campaign's final state in the control
// journal. A campaign cancelled by coordinator shutdown (rather than an
// explicit Cancel) is deliberately left non-terminal on disk: the next
// coordinator re-submits it.
func (c *Coordinator) journalTerminal(camp *Campaign) {
	camp.mu.Lock()
	state, errMsg, finished := camp.state, camp.err, camp.finished
	shutdown := state == StateCanceled && !camp.userCanceled
	camp.mu.Unlock()
	if shutdown {
		return
	}
	if err := c.ctl.Append(ctlTerminal, ctlTerminalRec{
		ID: camp.id, State: state, Error: errMsg, At: finished,
	}); err != nil {
		c.logf("campaign %s: control journal append failed: %v", camp.id, err)
	}
}

// delegate is the campaign engine's cell executor: enqueue the cell on
// the lease queue and wait for a worker's published result. The engine's
// cache, coalescing, and store rehydration run before this, so only
// genuinely new cells reach the queue.
func (c *Coordinator) delegate(ctx context.Context, camp *Campaign) func(sweep.Cell) (*machine.Result, error) {
	return func(cell sweep.Cell) (*machine.Result, error) {
		ch := make(chan Outcome, 1)
		digest, wid := c.queue.Enqueue(cell, EnqueueOptions{
			MaxAttempts: camp.spec.Retries + 1,
			CellTimeout: camp.spec.CellTimeout,
			Campaign:    camp.id,
			Weight:      camp.spec.Priority.weight(),
			Deadline:    camp.deadline,
		}, ch)
		camp.cellDelegated()
		select {
		case out := <-ch:
			camp.cellReturned(out.Err)
			return out.Res, out.Err
		case <-ctx.Done():
			c.queue.Abandon(digest, wid)
			return nil, ctx.Err()
		}
	}
}

// Cancel stops a running campaign. The cancellation is journaled before
// the campaign unwinds, so it sticks even if the coordinator dies
// mid-teardown. Cancelling a finished campaign is a no-op that reports
// its terminal status.
func (c *Coordinator) Cancel(id string) (Status, bool) {
	camp, ok := c.campaign(id)
	if !ok {
		return Status{}, false
	}
	camp.mu.Lock()
	running := camp.state == StateRunning
	if running {
		camp.userCanceled = true
	}
	camp.mu.Unlock()
	if running {
		if err := c.ctl.Append(ctlCancel, ctlCancelRec{ID: id, At: time.Now().UTC()}); err != nil {
			c.logf("campaign %s: control journal append failed: %v", id, err)
		}
	}
	camp.cancel()
	return camp.status(), true
}

// Campaign returns one campaign's status.
func (c *Coordinator) Campaign(id string) (Status, bool) {
	camp, ok := c.campaign(id)
	if !ok {
		return Status{}, false
	}
	return camp.status(), true
}

// Campaigns lists every campaign's status, newest first.
func (c *Coordinator) Campaigns() []Status {
	c.mu.Lock()
	campaigns := make([]*Campaign, 0, len(c.campaigns))
	for _, camp := range c.campaigns {
		campaigns = append(campaigns, camp)
	}
	c.mu.Unlock()
	out := make([]Status, 0, len(campaigns))
	for _, camp := range campaigns {
		out = append(out, camp.status())
	}
	// Newest first by ID (IDs embed the creation time and a sequence).
	sort.Slice(out, func(i, j int) bool { return out[i].ID > out[j].ID })
	return out
}

// Tables returns the finished tables of a campaign (those whose
// experiments completed; a running or failed campaign returns the subset
// finished so far).
func (c *Coordinator) Tables(id string) ([]TableResult, bool) {
	camp, ok := c.campaign(id)
	if !ok {
		return nil, false
	}
	camp.mu.Lock()
	defer camp.mu.Unlock()
	out := make([]TableResult, len(camp.tables))
	copy(out, camp.tables)
	return out, true
}

// ResultDigest returns the canonical content digest of a result payload —
// the value workers attest with every publish and quorums compare. Two
// honest executions of the same cell produce the same digest, because a
// cell's result is a deterministic function of its content address.
func ResultDigest(res *machine.Result) (string, error) {
	return store.DigestJSON(res)
}

// Complete judges a worker's publish. The queue applies fencing,
// attestation, and (for verified cells) quorum voting; only an admitted
// result is persisted into the shared store, under the label of the
// cell the coordinator queued. A tied quorum escalates to local
// arbitration — the coordinator re-executes the cell itself as ground
// truth — and divergence evidence against an already-admitted value
// triggers quorum re-verification of the cell. pub.Canonical is
// computed here from the payload; any value the caller set is ignored.
func (c *Coordinator) Complete(pub Publish) CompleteResult {
	pub.Canonical = ""
	if pub.Result != nil {
		var err error
		if pub.Canonical, err = ResultDigest(pub.Result); err != nil {
			c.logf("campaign: publish %s: result not canonicalizable: %v", short(pub.Digest), err)
		}
	}
	digest := pub.Digest
	out := c.queue.Complete(pub)
	switch out.Verdict {
	case VerdictAdmitted:
		c.persist(digest, out.Cell.Label, out.ResDigest, out.Res)
	case VerdictNeedArbiter:
		go c.arbitrate(digest, out.Cell)
	case VerdictDivergent:
		c.logf("campaign: worker %q published a divergent result for %s (%s); re-verifying under quorum",
			out.Worker, short(digest), out.Cell.Label)
		if _, ok := c.queue.Requeue(digest); ok {
			c.addScrub(func(s *ScrubHealth) { s.Healed++ })
		}
	case VerdictZombie, VerdictFenceMismatch, VerdictDigestMismatch:
		c.logf("campaign: publish for %s rejected (%s) from worker %q: %s",
			short(digest), out.Verdict, out.Worker, out.Reason)
	}
	return out
}

// persist writes an admitted result into the shared store. If an object
// for the digest already exists but holds a different value — a stale
// admission a fresh quorum has now overruled, or a poisoned write from
// inside the store's trust boundary — it is quarantined and replaced.
func (c *Coordinator) persist(digest, label, resDigest string, res *machine.Result) {
	if c.store == nil || res == nil {
		return
	}
	if prev, ok := c.store.Get(digest); ok {
		prevDigest, err := ResultDigest(prev)
		if err == nil && prevDigest == resDigest {
			return // already persisted, byte-equivalent
		}
		c.store.QuarantineObject(digest)
		c.addScrub(func(s *ScrubHealth) { s.Replaced++ })
		c.logf("campaign: store object %s disagreed with the admitted result; quarantined and replaced", short(digest))
	}
	if err := c.store.Put(digest, label, res); err != nil {
		c.logf("campaign: persist %s: %v", short(digest), err)
	}
}

// arbitrate resolves a tied verification quorum by re-executing the cell
// locally: the coordinator trusts its own binary over any worker's word.
// The fresh engine has no store and no cache, so the arbitration is a
// genuinely independent execution.
func (c *Coordinator) arbitrate(digest string, cell sweep.Cell) {
	c.logf("campaign: quorum tied on %s (%s); arbitrating with a local re-execution", short(digest), cell.Label)
	eng := sweep.New(1)
	eng.SetSimulator(func(cl sweep.Cell) (*machine.Result, error) {
		return sweep.SimulateContext(c.bg, cl)
	})
	results, err := eng.Run(c.bg, []sweep.Cell{cell}, 1)
	if err != nil {
		c.logf("campaign: arbitration of %s failed (%v); requeueing for a fresh quorum", short(digest), err)
		c.queue.ArbiterFailed(digest)
		return
	}
	resDigest, err := ResultDigest(results[0])
	if err != nil {
		c.logf("campaign: arbitration of %s produced a non-canonicalizable result: %v", short(digest), err)
		c.queue.ArbiterFailed(digest)
		return
	}
	if out, ok := c.queue.ResolveArbiter(digest, resDigest, results[0]); ok {
		c.persist(digest, out.Cell.Label, out.ResDigest, out.Res)
		c.logf("campaign: arbitration admitted %s for %s", short(out.ResDigest), short(digest))
	}
}

// addScrub mutates the scrub health counters under their lock.
func (c *Coordinator) addScrub(fn func(*ScrubHealth)) {
	c.scrubMu.Lock()
	fn(&c.scrub)
	c.scrubMu.Unlock()
}

// ScrubStats returns a snapshot of the repair counters.
func (c *Coordinator) ScrubStats() ScrubHealth {
	c.scrubMu.Lock()
	defer c.scrubMu.Unlock()
	return c.scrub
}

func (c *Coordinator) campaign(id string) (*Campaign, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	camp, ok := c.campaigns[id]
	return camp, ok
}

// ---- Campaign state transitions ----

func (camp *Campaign) cellDelegated() {
	camp.mu.Lock()
	camp.cells.Delegated++
	camp.mu.Unlock()
}

func (camp *Campaign) cellReturned(err error) {
	camp.mu.Lock()
	if err != nil {
		camp.cells.Failed++
	} else {
		camp.cells.Completed++
	}
	camp.mu.Unlock()
}

func (camp *Campaign) experimentDone(name string, table *experiments.Table) {
	camp.mu.Lock()
	camp.expDone++
	camp.tables = append(camp.tables, TableResult{
		Name: name, ID: table.ID, Title: table.Title,
		Text: table.String(), CSV: table.CSV(),
	})
	camp.mu.Unlock()
}

func (camp *Campaign) experimentFailed(name string, err error) {
	camp.mu.Lock()
	camp.expDone++
	camp.expErrs[name] = err.Error()
	camp.mu.Unlock()
}

func (camp *Campaign) finish(canceled, expired bool) {
	camp.mu.Lock()
	defer camp.mu.Unlock()
	camp.finished = time.Now().UTC()
	switch {
	case expired:
		// A blown deadline is an outcome, not a shutdown: the campaign
		// fails terminally (journaled, never re-submitted) and the
		// tables finished in time stay fetchable.
		camp.state = StateFailed
		camp.err = fmt.Sprintf("deadline %v exceeded with %d of %d experiments finished; partial tables available",
			camp.spec.Deadline, camp.expDone-len(camp.expErrs), len(camp.spec.Experiments))
	case canceled:
		camp.state = StateCanceled
		camp.err = "canceled"
	case len(camp.expErrs) > 0:
		camp.state = StateFailed
		camp.err = fmt.Sprintf("%d of %d experiments failed", len(camp.expErrs), len(camp.spec.Experiments))
	default:
		camp.state = StateDone
	}
}

func (camp *Campaign) status() Status {
	var es sweep.Stats
	if camp.engine != nil {
		es = camp.engine.Stats()
	}
	camp.mu.Lock()
	defer camp.mu.Unlock()
	st := Status{
		ID:               camp.id,
		State:            camp.state,
		Error:            camp.err,
		Spec:             camp.spec,
		ExperimentsDone:  camp.expDone,
		ExperimentsTotal: len(camp.spec.Experiments),
		Cells:            camp.cells,
		Created:          camp.created,
		Finished:         camp.finished,
		Recovered:        camp.recovered,
		Deadline:         camp.deadline,
	}
	st.Cells.CacheHits = es.CacheHits
	st.Cells.StoreHits = es.StoreHits
	if len(camp.expErrs) > 0 {
		st.ExperimentErrors = make(map[string]string, len(camp.expErrs))
		for k, v := range camp.expErrs {
			st.ExperimentErrors[k] = v
		}
	}
	return st
}
