package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"secmgpu/internal/machine"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name identifies the worker in lease records and logs (default
	// "<hostname>-<pid>").
	Name string
	// Store is the shared content-addressed store (optional). With it,
	// the worker persists results as it finishes them and serves
	// repeated cells from disk without re-simulating; without it,
	// results still reach the coordinator through the publish call.
	Store *store.Store
	// Poll is the wait between lease attempts when the queue is empty
	// or a lease attempt errored after the client's own retries
	// (default 500ms).
	Poll time.Duration
	// Logf receives operational log lines (nil silences them).
	Logf func(format string, args ...any)
}

// Worker leases cells from a coordinator, executes them through the
// sweep engine, and publishes results. Crash-safety needs nothing from
// the worker: if it dies mid-cell, the lease expires and the cell is
// re-leased; if it stalls and publishes late, the digest-keyed store
// makes the publish a no-op.
type Worker struct {
	client *Client
	name   string
	poll   time.Duration
	logf   func(string, ...any)
	engine *sweep.Engine

	mu    sync.Mutex
	stats WorkerStats
}

// WorkerStats counts a worker's activity.
type WorkerStats struct {
	// Leased counts granted cells, Completed successful publishes,
	// Failed reported failures.
	Leased    int
	Completed int
	Failed    int
	// RenewLost counts heartbeats that found the lease already expired
	// or superseded (the worker kept going; its publish may still land
	// as a benign duplicate, or be fenced off as a zombie).
	RenewLost int
	// LeaseErrors counts lease attempts that failed even after the
	// client's own retries — the coordinator was down long enough that
	// the worker waited a poll interval and asked again.
	LeaseErrors int
	// Rejected counts publishes the coordinator refused with a 409:
	// fenced zombies, attestation mismatches, divergent answers.
	Rejected int
}

// NewWorker returns a worker for the given coordinator client.
func NewWorker(client *Client, opts WorkerOptions) *Worker {
	name := opts.Name
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	engine := sweep.New(1)
	engine.SetStore(opts.Store)
	return &Worker{
		client: client, name: name, poll: poll, logf: logf, engine: engine,
	}
}

// Name returns the worker's lease identity.
func (w *Worker) Name() string { return w.name }

// Stats returns a snapshot of the activity counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run leases and executes cells until ctx is cancelled. A lease call
// that still errors after the client's jittered retries (the
// coordinator restarted, the network is partitioned) is followed by one
// Poll wait, as an empty queue is, so the worker rides out a full
// coordinator restart and re-leases without intervention. Run returns
// ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	w.logf("worker %s: polling for work", w.name)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, ok, err := w.client.Lease(ctx, w.name)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.mu.Lock()
			w.stats.LeaseErrors++
			w.mu.Unlock()
			w.logf("worker %s: lease: %v (retrying in %s)", w.name, err, w.poll)
		}
		if !ok { // an error, or an empty queue
			if !w.sleep(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		w.runCell(ctx, grant)
	}
}

// sleep waits d or until ctx is done, reporting whether to continue.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// runCell executes one granted cell under a heartbeat and publishes the
// outcome with its attestation.
func (w *Worker) runCell(ctx context.Context, g Grant) {
	w.mu.Lock()
	w.stats.Leased++
	w.mu.Unlock()
	verifyTag := ""
	if g.Verify {
		verifyTag = ", verify"
	}
	w.logf("worker %s: leased %s (%s, attempt %d%s)", w.name, g.Digest[:12], g.Label, g.Attempt, verifyTag)

	stopBeat := w.heartbeat(ctx, g)
	res, err := w.execute(ctx, g)
	stopBeat()

	if err != nil {
		// A cancelled worker reports nothing: the lease will expire and
		// the cell re-lease, exactly like a crash.
		if ctx.Err() != nil {
			return
		}
		w.mu.Lock()
		w.stats.Failed++
		w.mu.Unlock()
		w.logf("worker %s: cell %s failed: %v", w.name, g.Digest[:12], err)
		if ferr := w.client.Fail(ctx, g.Lease, g.Fence, g.Digest, err.Error()); ferr != nil {
			w.logf("worker %s: report failure: %v", w.name, ferr)
		}
		return
	}

	// Attest the canonical digest of the payload about to ship.
	attest, derr := ResultDigest(res)
	if derr != nil {
		w.logf("worker %s: cell %s: attestation digest failed: %v", w.name, g.Digest[:12], derr)
		attest = ""
	}

	pub := Publish{Lease: g.Lease, Fence: g.Fence, Digest: g.Digest, ResultDigest: attest, Result: res}
	if cerr := w.client.Complete(ctx, pub); cerr != nil {
		var apiErr *APIError
		if errors.As(cerr, &apiErr) && apiErr.Status == 409 {
			w.mu.Lock()
			w.stats.Rejected++
			w.mu.Unlock()
			w.logf("worker %s: publish %s REJECTED: %v", w.name, g.Digest[:12], cerr)
			return
		}
		w.logf("worker %s: publish %s: %v", w.name, g.Digest[:12], cerr)
		return
	}
	w.mu.Lock()
	w.stats.Completed++
	w.mu.Unlock()
	w.logf("worker %s: completed %s (%s)", w.name, g.Digest[:12], g.Label)
}

// execute resolves the grant's workload (an abbreviation this binary
// does not know fails the attempt like any other error) and runs the
// cell through the worker's sweep engine: panic guard, per-grant cell
// timeout, store persistence and rehydration all come with it. A grant
// carrying a campaign deadline caps the simulation context at that
// absolute instant, so a deadline-expired campaign cancels its
// in-flight simulations instead of wasting worker time on results
// nobody will wait for. A verification grant instead runs on a fresh,
// storeless engine: the whole point of the quorum is an independent
// re-execution, so serving the vote from the shared store (or this
// worker's cache) would just echo the first answer back.
func (w *Worker) execute(ctx context.Context, g Grant) (*machine.Result, error) {
	cell, err := g.cell()
	if err != nil {
		return nil, err
	}
	if !g.Deadline.IsZero() {
		dctx, cancel := context.WithDeadline(ctx, g.Deadline)
		defer cancel()
		ctx = dctx
	}
	eng := w.engine
	if g.Verify {
		eng = sweep.New(1)
	}
	eng.SetCellTimeout(g.CellTimeout)
	eng.SetSimulator(func(c sweep.Cell) (*machine.Result, error) {
		return sweep.SimulateContext(ctx, c)
	})
	results, err := eng.Run(ctx, []sweep.Cell{cell}, 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// heartbeat renews the lease every TTL/3 until the returned stop func is
// called. A lost lease is logged and counted, not fatal: the execution
// continues and the publish remains valid (and idempotent).
func (w *Worker) heartbeat(ctx context.Context, g Grant) (stop func()) {
	if g.TTL <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(g.TTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				err := w.client.Renew(ctx, g.Lease, g.Fence)
				var apiErr *APIError
				switch {
				case err == nil:
				case errors.As(err, &apiErr) && apiErr.Status == 410:
					w.mu.Lock()
					w.stats.RenewLost++
					w.mu.Unlock()
					w.logf("worker %s: lease %s lost; finishing anyway (publish stays valid)", w.name, g.Lease)
					return
				default:
					w.logf("worker %s: renew %s: %v", w.name, g.Lease, err)
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
