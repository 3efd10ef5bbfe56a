// Command secbench regenerates the paper's tables and figures on the
// simulated secure multi-GPU system.
//
// All experiments run through the shared sweep engine, so identical
// (workload, config) cells are simulated once per invocation even when
// several figures need them — `secbench -exp all` re-uses the Unsecure
// baseline across nearly every figure and reports the deduplication in a
// final sweep summary. SIGINT cancels the run gracefully: in-flight
// simulations finish, no new cells start, and completed tables remain
// printed.
//
// With -store the run is also crash-safe: every completed cell persists
// to an on-disk content-addressed store as it finishes, a per-run
// journal records progress, and a run killed mid-campaign resumes with
// -resume RUNID — replaying the journal, reusing every verified
// persisted result, and simulating only what is missing. Results from a
// different binary or config are invalidated (quarantined), never
// silently reused.
//
// secbench also runs as a distributed campaign service: -serve starts a
// coordinator exposing campaigns over a versioned HTTP+JSON API backed
// by a lease-based work queue of sweep-cell digests, -worker starts a
// worker process that leases cells, executes them, and publishes results
// into the shared content-addressed store, and -submit sends a campaign
// to a coordinator, waits, and fetches the finished tables. Because
// results are digest-keyed, a SIGKILL'd worker is just an expired lease:
// its cells re-lease to a surviving worker and the final tables are
// byte-identical to a single-process run.
//
// Usage:
//
//	secbench -exp fig21 -scale 0.25
//	secbench -exp all -scale 1.0 -csv
//	secbench -exp all -store results/store -run-id nightly -out results/tables
//	secbench -exp all -store results/store -resume nightly -out results/tables
//	secbench -serve :8123 -store results/store -auth-token $TOKEN
//	secbench -serve :8123 -store results/store -tls-cert cert.pem -tls-key key.pem
//	secbench -worker -coordinator http://coord:8123 -store results/store -auth-token $TOKEN
//	secbench -submit -coordinator http://coord:8123 -exp fig21 -out tables -auth-token $TOKEN
//	secbench -serve :8123 -store results/store -verify-fraction 0.1 -scrub-interval 10m
//	secbench -serve :8123 -store results/store -max-campaigns 8 -max-queue-depth 10000
//	secbench -submit -coordinator http://coord:8123 -exp all -priority low -deadline 2h -out tables
//	secbench -fsck -store results/store
//	secbench -list
//
// The coordinator itself is crash-tolerant when -store is set: campaign
// submissions and lifecycle transitions are journaled to
// <store>/coordinator.jsonl, and a restarted coordinator replays the
// journal, re-submits campaigns that were running, and rehydrates their
// persisted cells — workers reconnect and the campaign converges to the
// same bytes. SECBENCH_FAULTS (or -faults) injects seeded RPC faults
// into -worker/-submit traffic for chaos testing.
//
// Under load the coordinator degrades gracefully rather than falling
// over: -max-campaigns and -max-queue-depth shed excess submissions with
// 429 + Retry-After (which -submit honors, retrying until admitted) — the
// only load-shedding path; work already admitted runs to a correct
// result. -priority feeds a weighted-fair lease scheduler so big
// sweeps cannot starve interactive submissions, and -deadline bounds a
// campaign's wall time (past it: failed, partial tables returned, workers
// cancel in-flight cells). -submit streams each table as it finishes.
// SIGINT kills the coordinator abruptly (crash semantics, journal
// recovery); SIGTERM drains it gracefully and journals a clean shutdown.
//
// Workers holding the auth token are trusted, but their results are
// still checked: every publish attests the canonical digest of its
// payload under a per-lease fencing token, -verify-fraction sends a
// deterministic sample of cells to two independent workers (a tied vote
// is re-executed by the coordinator), and -scrub-interval makes the
// coordinator periodically re-verify every object at rest. `secbench
// -fsck -store DIR` runs that same scrub once, offline, and exits
// non-zero if corruption was found.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"secmgpu/internal/campaign"
	"secmgpu/internal/experiments"
	"secmgpu/internal/prof"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// stopProfiles flushes any active -cpuprofile/-memprofile before the
// process exits; fatal and the explicit os.Exit paths all route through it.
var stopProfiles = func() {}

// reporter is the live stderr progress view of the sweep engine: one
// rewritten status line per completed cell, cleared before tables print.
type reporter struct {
	name  string
	dirty bool
}

func (r *reporter) observe(ev sweep.Event) {
	if ev.Err != nil {
		r.clear()
		fmt.Fprintf(os.Stderr, "secbench: %s: cell %s failed: %v\n", r.name, ev.Label, ev.Err)
	}
	fmt.Fprintf(os.Stderr, "\r\033[K  %s: %d/%d cells · %d cached · %d failed · last %s %.2fs",
		r.name, ev.Done, ev.Total, ev.CachedCells, ev.FailedCells, ev.Label, ev.Duration.Seconds())
	r.dirty = true
}

// clear erases the in-place status line so regular output starts clean.
func (r *reporter) clear() {
	if r.dirty {
		fmt.Fprint(os.Stderr, "\r\033[K")
		r.dirty = false
	}
}

func main() {
	exp := flag.String("exp", "fig21", "experiment to run (or 'all', or a comma-separated list)")
	scale := flag.Float64("scale", 0.25, "workload scale factor (1.0 = full size)")
	gpus := flag.Int("gpus", 4, "number of GPUs")
	seed := flag.Int64("seed", 1, "workload seed")
	par := flag.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	list := flag.Bool("list", false, "list experiments and exit")
	quiet := flag.Bool("quiet", false, "disable the live progress line")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default all)")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-simulation wall-time bound (0 = unbounded); an exceeded cell fails instead of hanging the sweep")
	storeDir := flag.String("store", "", "durable result store directory: completed cells persist as they finish and later runs reuse them")
	resume := flag.String("resume", "", "resume the journaled run with this ID from the store (requires -store)")
	runID := flag.String("run-id", "", "run identifier for the journal (default: derived from the start time)")
	outDir := flag.String("out", "", "also write each experiment's table to this directory (atomic writes, one stable filename per experiment)")
	retries := flag.Int("retries", 0, "extra attempts for a failed cell before it is marked failed in the journal")
	retryBackoff := flag.Duration("retry-backoff", 2*time.Second, "base wait between cell retry attempts (doubles each retry)")
	heapMB := flag.Uint64("heap-watermark-mb", 0, "soft heap watermark in MiB: above it, results already persisted to the store are shed from memory (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	serveAddr := flag.String("serve", "", "run a campaign coordinator on this address (e.g. :8123) instead of a local sweep; uses -store and -lease-ttl")
	workerMode := flag.Bool("worker", false, "run as a campaign worker: lease cells from -coordinator, execute, publish results (shares -store)")
	submitMode := flag.Bool("submit", false, "submit the experiment set to -coordinator as a campaign, wait, and fetch tables")
	coordinator := flag.String("coordinator", "", "coordinator base URL for -worker and -submit (e.g. http://127.0.0.1:8123)")
	var serve campaign.Options // the -serve settings, filled by their flags
	flag.DurationVar(&serve.LeaseTTL, "lease-ttl", 30*time.Second, "how long a worker may hold a leased cell without renewing before it requeues (-serve)")
	flag.IntVar(&serve.MaxCampaigns, "max-campaigns", 0, "admission limit: reject new submissions with 429 + Retry-After while this many campaigns are running (-serve; 0 = unlimited)")
	flag.IntVar(&serve.MaxQueueDepth, "max-queue-depth", 0, "admission limit: reject new submissions while this many cells are pending on the work queue (-serve; 0 = unlimited)")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts when the queue is empty (-worker) and between status polls (-submit)")
	workerName := flag.String("worker-name", "", "worker identity in lease records (default hostname-pid)")
	authToken := flag.String("auth-token", os.Getenv("SECBENCH_AUTH_TOKEN"), "shared bearer token: required by -serve on every endpoint except /v1/healthz, sent by -worker and -submit (default $SECBENCH_AUTH_TOKEN)")
	flag.StringVar(&serve.TLSCertFile, "tls-cert", "", "TLS certificate file for -serve (with -tls-key, the coordinator terminates TLS)")
	flag.StringVar(&serve.TLSKeyFile, "tls-key", "", "TLS private key file for -serve")
	faults := flag.String("faults", os.Getenv("SECBENCH_FAULTS"), "seeded RPC fault injection for -worker and -submit traffic, e.g. \"seed=7,refuse=0.05,timeout=0.02,err=0.05,torn=0.03,dup=0.05\" (default $SECBENCH_FAULTS; chaos testing only)")
	flag.Float64Var(&serve.VerifyFraction, "verify-fraction", 0, "fraction of cells the coordinator re-executes on two independent workers to catch faulty results (-serve; 0 disables, 1 verifies everything)")
	flag.DurationVar(&serve.ScrubInterval, "scrub-interval", 0, "how often the coordinator re-verifies every stored object at rest and heals corruption (-serve; 0 disables)")
	priority := flag.String("priority", "", "campaign priority for weighted-fair scheduling: low, normal, or high (-submit; default normal)")
	deadline := flag.Duration("deadline", 0, "campaign wall-time budget from submission (-submit; 0 = unbounded): past it the campaign fails and returns the tables finished so far")
	fsck := flag.Bool("fsck", false, "verify every object in -store once (the coordinator's scrub pass, offline), quarantine corruption, and exit non-zero if any was found")
	flag.Parse()
	serve.AuthToken = *authToken

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()

	reg := experiments.Registry()
	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	if *fsck {
		runFsck(*storeDir)
		return
	}
	if *serveAddr != "" {
		// The coordinator manages its own signals: SIGINT cancels hard
		// (crash semantics — campaigns recover from the journal), SIGTERM
		// drains gracefully (no new leases, in-flight work finishes, a
		// clean-shutdown record lands in the journal).
		runServe(*serveAddr, *storeDir, serve, *quiet)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case *workerMode:
		runWorker(ctx, *coordinator, *storeDir, *workerName, *poll, *authToken, *faults, *quiet)
		return
	case *submitMode:
		// The sweep flags map onto the campaign options struct, the same
		// surface the library and the coordinator use.
		spec := campaign.Spec{
			GPUs: *gpus, Scale: *scale, Seed: *seed, Parallelism: *par, Retries: *retries,
			CellTimeout: *cellTimeout, Priority: campaign.Priority(*priority), Deadline: *deadline,
		}
		if *exp != "" && *exp != "all" {
			spec.Experiments = strings.Split(*exp, ",")
		}
		if *workloads != "" {
			spec.Workloads = strings.Split(*workloads, ",")
		}
		runSubmit(ctx, *coordinator, spec, *outDir, *csv, *poll, *authToken, *faults, *quiet)
		return
	}

	engine := sweep.New(*par)
	engine.SetCellTimeout(*cellTimeout)
	engine.SetRetry(*retries, *retryBackoff)
	engine.SetHeapWatermark(*heapMB << 20)
	rep := &reporter{}
	if !*quiet {
		engine.Observe(rep.observe)
	}

	p := experiments.Params{GPUs: *gpus, Scale: *scale, Seed: *seed, Parallelism: *par, Engine: engine}
	if *workloads != "" {
		p.Workloads = strings.Split(*workloads, ",")
	}

	var names []string
	if *exp == "all" {
		names = experiments.Names()
	} else {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		if _, ok := reg[name]; !ok {
			fmt.Fprintf(os.Stderr, "secbench: unknown experiment %q (use -list)\n", name)
			stopProfiles()
			os.Exit(2)
		}
	}

	st, journal := openDurability(*storeDir, *resume, *runID, names, p)
	engine.SetStore(st)
	engine.SetJournal(journal)
	defer journal.Close()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	start := time.Now()
	failed := 0
	interrupted := false
	for _, name := range names {
		fn := reg[name]
		rep.name = name
		expStart := time.Now()
		table, err := fn(ctx, p)
		rep.clear()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			// A failed experiment does not abort the rest of the run;
			// the sweep engine already isolated the broken cell.
			fmt.Fprintf(os.Stderr, "secbench: %s: %v\n", name, err)
			failed++
			continue
		}
		rendered := table.String()
		if *csv {
			rendered = table.CSV()
		}
		fmt.Print(rendered)
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(expStart).Seconds())
		if *outDir != "" {
			if err := writeRendered(*outDir, name, *csv, rendered); err != nil {
				fmt.Fprintf(os.Stderr, "secbench: %v\n", err)
				failed++
			}
		}
	}

	es := engine.Stats()
	fmt.Fprintf(os.Stderr,
		"sweep summary: %d cells requested, %d simulated, %d deduplicated (cache hits), %d failed; %.1fs simulation time in %.1fs wall\n",
		es.Cells, es.Simulated, es.CacheHits, es.Failed,
		es.SimTime.Seconds(), time.Since(start).Seconds())
	if st != nil {
		ss := st.Stats()
		fmt.Fprintf(os.Stderr,
			"store summary: %d restored from store, %d persisted, %d quarantined, %d retries, %d shed; journal %s\n",
			es.StoreHits, ss.Puts, ss.Quarantined, es.Retries, es.Shed, journal.Path())
	}
	if err := journal.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "secbench: journal writes failed (results are still persisted): %v\n", err)
	}
	switch {
	case interrupted:
		fmt.Fprintln(os.Stderr, "secbench: interrupted; tables printed above are complete, the rest were skipped")
		if journal != nil {
			fmt.Fprintf(os.Stderr, "secbench: resume with -store %s -resume %s\n", *storeDir, journalRunID(journal))
		}
		stopProfiles()
		os.Exit(130)
	case failed > 0:
		stopProfiles()
		os.Exit(1)
	}
}

// openDurability wires up the optional store and journal: a fresh run
// creates a new journal, -resume replays and verifies an existing one.
// Both return nil when -store is unset.
func openDurability(storeDir, resume, runID string, names []string, p experiments.Params) (*store.Store, *store.Journal) {
	if storeDir == "" {
		if resume != "" {
			fatal(errors.New("-resume requires -store"))
		}
		return nil, nil
	}
	simDigest := store.BinaryDigest()
	st, err := store.Open(storeDir, store.Options{SimDigest: simDigest})
	if err != nil {
		fatal(err)
	}
	info := store.RunInfo{
		ID:        runID,
		SimDigest: simDigest,
		Exps:      names,
		GPUs:      p.GPUs,
		Scale:     p.Scale,
		Seed:      p.Seed,
		Workloads: p.Workloads,
	}

	if resume != "" {
		info.ID = resume
		path := st.JournalPath(resume)
		rep, err := store.ReplayJournal(path)
		if err != nil {
			fatal(err)
		}
		if err := rep.Info.Verify(info); err != nil {
			fatal(err)
		}
		if rep.Info.SimDigest != simDigest {
			fmt.Fprintln(os.Stderr, "secbench: warning: binary changed since this run started; persisted results will be invalidated and re-simulated")
		}
		journal, err := store.OpenJournalAppend(path, info)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr,
			"secbench: resuming run %s (attempt %d): %d cells already persisted, %d failed, %d corrupt journal records tolerated\n",
			resume, rep.Resumes+1, len(rep.Done), len(rep.Failed), rep.Corrupt)
		return st, journal
	}

	if info.ID == "" {
		info.ID = "r" + time.Now().UTC().Format("20060102-150405")
	}
	journal, err := store.CreateJournal(st.JournalPath(info.ID), info)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "secbench: journaling run %s to %s\n", info.ID, journal.Path())
	return st, journal
}

// journalRunID recovers the run ID from the journal path for the resume
// hint printed on interruption.
func journalRunID(j *store.Journal) string {
	base := filepath.Base(j.Path())
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// writeRendered writes one experiment's rendered table under its stable
// filename (atomic write). The single-process and -submit paths share it,
// which is what makes their output directories byte-comparable.
func writeRendered(outDir, name string, csv bool, rendered string) error {
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	path := filepath.Join(outDir, name+ext)
	if err := store.WriteFileAtomic(path, []byte(rendered)); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// runFsck opens the store, runs one scrub pass over every object, prints
// the report, and exits non-zero when corruption was quarantined — the
// offline twin of the coordinator's -scrub-interval loop.
func runFsck(storeDir string) {
	if storeDir == "" {
		fatal(errors.New("-fsck requires -store"))
	}
	rep, err := openStore(storeDir).Scrub()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fsck %s: %d objects scanned, %d healthy, %d stale (other simulator binary, left in place), %d quarantined\n",
		storeDir, rep.Scanned, rep.Healthy, rep.Stale, rep.Quarantined)
	for _, bad := range rep.Bad {
		fmt.Printf("  quarantined %s: %s\n", bad.Digest, bad.Reason)
	}
	if rep.Quarantined > 0 {
		fmt.Fprintln(os.Stderr, "secbench: fsck found corruption; quarantined objects re-simulate on next use")
		stopProfiles()
		os.Exit(1)
	}
}

// openStore opens the shared result store at dir (nil when dir is "").
func openStore(dir string) *store.Store {
	if dir == "" {
		return nil
	}
	st, err := store.Open(dir, store.Options{SimDigest: store.BinaryDigest()})
	if err != nil {
		fatal(err)
	}
	return st
}

// logger returns the operational log of -serve, -worker and -submit: one
// "secbench: " line per message on stderr, or nil under -quiet.
func logger(quiet bool) func(format string, args ...any) {
	if quiet {
		return nil
	}
	return func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "secbench: "+format+"\n", args...)
	}
}

// runServe hosts a campaign coordinator configured by opts, the -serve
// flags, on the store at storeDir. SIGINT cancels the serve context —
// crash semantics, campaigns recover from the journal on the next boot.
// SIGTERM instead triggers a graceful drain: lease granting and
// submissions stop (503 + Retry-After), in-flight leases finish or
// expire, a clean-shutdown record is journaled, and the process exits 0.
func runServe(addr, storeDir string, opts campaign.Options, quiet bool) {
	opts.Logf = logger(quiet)
	if opts.Logf != nil {
		opts.Logf("serving campaigns on %s (store %q, lease TTL %s, auth %v, tls %v, verify %.2f, scrub %s, max campaigns %d, max queue %d)",
			addr, storeDir, opts.LeaseTTL, opts.AuthToken != "", opts.TLSCertFile != "",
			opts.VerifyFraction, opts.ScrubInterval, opts.MaxCampaigns, opts.MaxQueueDepth)
	}
	if (opts.TLSCertFile == "") != (opts.TLSKeyFile == "") {
		fatal(errors.New("-tls-cert and -tls-key must be set together"))
	}
	opts.Store = openStore(storeDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	drain := make(chan struct{})
	opts.Drain = drain
	sigterm := make(chan os.Signal, 1)
	signal.Notify(sigterm, syscall.SIGTERM)
	go func() {
		select {
		case <-sigterm:
			if opts.Logf != nil {
				opts.Logf("SIGTERM: draining — refusing new work, waiting for in-flight leases")
			}
			close(drain)
		case <-ctx.Done():
		}
	}()

	if err := campaign.Serve(ctx, addr, opts); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
}

// newCampaignClient builds the coordinator client shared by -worker and
// -submit: bearer token attached, and — for chaos testing — the seeded
// fault-injecting transport wrapped around the real one.
func newCampaignClient(coordinator, authToken, faults string, logf func(string, ...any)) *campaign.Client {
	httpClient := &http.Client{Timeout: 60 * time.Second}
	if faults != "" {
		spec, err := campaign.ParseFaultSpec(faults)
		if err != nil {
			fatal(err)
		}
		if spec.Enabled() {
			httpClient.Transport = campaign.NewFaultTransport(spec, nil)
			if logf != nil {
				logf("fault injection enabled: %s", faults)
			}
		}
	}
	cl := campaign.NewClient(coordinator, httpClient)
	cl.SetToken(authToken)
	return cl
}

// runWorker leases and executes cells until interrupted.
func runWorker(ctx context.Context, coordinator, storeDir, name string, poll time.Duration, authToken, faults string, quiet bool) {
	if coordinator == "" {
		fatal(errors.New("-worker requires -coordinator URL"))
	}
	logf := logger(quiet)
	w := campaign.NewWorker(newCampaignClient(coordinator, authToken, faults, logf), campaign.WorkerOptions{
		Name: name, Store: openStore(storeDir), Poll: poll, Logf: logf,
	})
	_ = w.Run(ctx) // returns ctx.Err(): the worker runs until interrupted
	ws := w.Stats()
	fmt.Fprintf(os.Stderr, "secbench: worker %s done: %d leased, %d completed, %d failed, %d rejected, %d renewals lost, %d lease errors\n",
		w.Name(), ws.Leased, ws.Completed, ws.Failed, ws.Rejected, ws.RenewLost, ws.LeaseErrors)
}

// runSubmit sends a campaign to the coordinator, streams each table as
// the coordinator finishes it, and writes them under the same stable
// filenames a single-process run uses. A 429/503 from an overloaded or
// draining coordinator is not fatal: the submission retries on the
// server's own Retry-After hint until admitted or interrupted.
func runSubmit(ctx context.Context, coordinator string, spec campaign.Spec, outDir string, csv bool, poll time.Duration, authToken, faults string, quiet bool) {
	if coordinator == "" {
		fatal(errors.New("-submit requires -coordinator URL"))
	}
	logf := logger(quiet)
	client := newCampaignClient(coordinator, authToken, faults, logf)
	var st campaign.Status
	for {
		var err error
		st, err = client.Submit(ctx, spec)
		if err == nil {
			break
		}
		var apiErr *campaign.APIError
		if errors.As(err, &apiErr) &&
			(apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable) {
			wait := apiErr.RetryAfter
			if wait <= 0 {
				wait = time.Second
			}
			if logf != nil {
				logf("coordinator shed the submission (%d: %s); retrying in %s", apiErr.Status, apiErr.Message, wait)
			}
			select {
			case <-ctx.Done():
				fatal(ctx.Err())
			case <-time.After(wait):
			}
			continue
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "secbench: submitted campaign %s (%d experiments)\n", st.ID, st.ExperimentsTotal)

	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	progress := func(s campaign.Status) {
		fmt.Fprintf(os.Stderr, "\r\033[K  campaign %s: %s · %d/%d experiments · %d cells delegated · %d completed · %d failed",
			s.ID, s.State, s.ExperimentsDone, s.ExperimentsTotal,
			s.Cells.Delegated, s.Cells.Completed, s.Cells.Failed)
	}
	if quiet {
		progress = nil
	}
	// Tables stream as the coordinator finishes them: each prints (and
	// persists) exactly once, long before the campaign's slowest
	// experiment lands. A finished table never changes, so the streamed
	// bytes equal what a terminal-state fetch would return, and
	// WaitTables' own terminal fetch flushes the rest. For a
	// deadline-expired (failed) campaign that flush is the partial-tables
	// answer: whatever finished before the budget ran out.
	writeFailed := 0
	emit := func(t campaign.TableResult) {
		rendered := t.Text
		if csv {
			rendered = t.CSV
		}
		if !quiet {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
		fmt.Print(rendered)
		fmt.Println()
		if outDir != "" {
			if err := writeRendered(outDir, t.Name, csv, rendered); err != nil {
				fmt.Fprintf(os.Stderr, "secbench: %v\n", err)
				writeFailed++
			}
		}
	}
	final, err := client.WaitTables(ctx, st.ID, poll, progress, emit)
	if !quiet {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
	if err != nil {
		if ctx.Err() != nil {
			// Interrupted: leave the campaign running server-side; a later
			// -submit of the identical spec reuses every persisted cell.
			fmt.Fprintf(os.Stderr, "secbench: interrupted; campaign %s continues on the coordinator\n", st.ID)
			stopProfiles()
			os.Exit(130)
		}
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "secbench: campaign %s %s: %d/%d experiments, %d cells delegated, %d completed, %d failed, %d cache hits, %d store hits\n",
		final.ID, final.State, final.ExperimentsDone, final.ExperimentsTotal,
		final.Cells.Delegated, final.Cells.Completed, final.Cells.Failed,
		final.Cells.CacheHits, final.Cells.StoreHits)
	for name, msg := range final.ExperimentErrors {
		fmt.Fprintf(os.Stderr, "secbench: %s failed: %s\n", name, msg)
	}
	if final.State != campaign.StateDone || writeFailed > 0 {
		stopProfiles()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secbench:", err)
	stopProfiles()
	os.Exit(2)
}
