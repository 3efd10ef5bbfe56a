// Package secmgpu is a simulation library for secure multi-GPU computing
// with dynamic and batched security-metadata management. It reproduces the
// system of Na, Kim, Lee and Huh, "Supporting Secure Multi-GPU Computing
// with Dynamic and Batched Metadata Management" (HPCA 2024):
//
//   - a discrete-event model of a unified-memory multi-GPU machine (CPU +
//     N GPUs, PCIe + NVLink-class fabric, HBM, page migration and direct
//     cacheline-granularity block access);
//   - counter-mode authenticated encryption of all inter-processor traffic
//     with pre-generated one-time pads, under the Private / Shared / Cached
//     buffer-management baselines;
//   - the paper's contributions: EWMA-driven dynamic OTP buffer
//     re-partitioning and security-metadata batching with lazy integrity
//     verification;
//   - the 17 evaluated workloads of Table IV as synthetic communication
//     models, and one experiment runner per table and figure.
//
// # Quick start
//
//	cfg := secmgpu.DefaultConfig(4)
//	cfg.Secure = true
//	cfg.Scheme = secmgpu.SchemeDynamic
//	cfg.Batching = true
//	cfg.Scale = 0.1
//
//	spec, _ := secmgpu.WorkloadByAbbr("mm")
//	res, err := secmgpu.RunContext(ctx, cfg, spec, secmgpu.RunOptions{})
//
// # Serving campaigns
//
// Beyond one-shot library runs, campaigns (sets of experiments) can be
// served by a long-running coordinator and executed by worker processes
// that lease cells and publish results into a shared content-addressed
// store:
//
//	go secmgpu.Serve(ctx, ":8123", secmgpu.ServeOptions{StoreDir: "results/store"})
//
//	client := secmgpu.NewClient("http://127.0.0.1:8123")
//	st, _ := client.Submit(ctx, secmgpu.CampaignSpec{
//		Experiments: []string{"fig21"}, Scale: 0.25,
//	})
//	st, _ = client.Wait(ctx, st.ID, time.Second, nil)
//	tables, _ := client.Tables(ctx, st.ID)
//
// Workers are separate processes: `secbench -worker -coordinator=URL`.
//
// See the examples/ directory for complete programs and cmd/secbench for
// regenerating every table and figure.
package secmgpu

import (
	"context"
	"fmt"
	"net/http"

	"secmgpu/internal/campaign"
	"secmgpu/internal/config"
	"secmgpu/internal/experiments"
	"secmgpu/internal/machine"
	"secmgpu/internal/otp"
	"secmgpu/internal/store"
	"secmgpu/internal/workload"
)

// Config describes one simulated system (Table III parameters, scheme
// selection, workload scale).
type Config = config.Config

// Scheme selects the OTP buffer management policy.
type Scheme = config.OTPScheme

// The OTP buffer management policies of Section II-C and IV-B.
const (
	SchemePrivate = config.OTPPrivate
	SchemeShared  = config.OTPShared
	SchemeCached  = config.OTPCached
	SchemeDynamic = config.OTPDynamic
	// SchemeOracle is an unimplementable always-ready-pad upper bound for
	// ablation studies.
	SchemeOracle = config.OTPOracle
)

// FaultProfile models a lossy fabric: seeded per-link drop, corruption, and
// duplication of protected messages, recovered by the NACK/retransmission
// protocol every secure channel runs.
type FaultProfile = config.FaultProfile

// RunOptions selects run-time features (functional crypto, communication
// tracing).
type RunOptions = machine.RunOptions

// Result is the outcome of one simulation: execution time, traffic
// accounting, OTP statistics, batching statistics.
type Result = machine.Result

// WorkloadSpec parameterizes one benchmark's communication model.
type WorkloadSpec = workload.Spec

// OTPStats aggregates pad-use outcomes (hit / partially hidden / miss).
type OTPStats = otp.Stats

// Directions for OTPStats queries.
const (
	Send = otp.Send
	Recv = otp.Recv
)

// Outcomes for OTPStats queries.
const (
	OTPHit     = otp.Hit
	OTPPartial = otp.Partial
	OTPMiss    = otp.Miss
)

// DefaultConfig returns the paper's Table III configuration for the given
// GPU count, with security disabled (the normalization baseline).
func DefaultConfig(numGPUs int) Config { return config.Default(numGPUs) }

// Workloads returns the 17 evaluated benchmarks of Table IV.
func Workloads() []WorkloadSpec { return workload.Registry() }

// WorkloadByAbbr looks a workload up by its Table IV abbreviation
// ("mm", "syr2k", ...).
func WorkloadByAbbr(abbr string) (WorkloadSpec, error) { return workload.ByAbbr(abbr) }

// RunContext simulates one workload on one system configuration and
// returns the result. The run is deterministic in (cfg, spec, opt);
// cancelling ctx aborts the simulation within a bounded number of events
// and returns ctx's error, without perturbing the event order of
// uncancelled runs.
func RunContext(ctx context.Context, cfg Config, spec WorkloadSpec, opt RunOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := machine.New(cfg, workload.Traces(spec, cfg.NumGPUs, cfg.Scale, cfg.Seed), opt)
	if err != nil {
		return nil, err
	}
	return sys.RunContext(ctx)
}

// SlowdownContext runs spec under both cfg and its unsecure baseline and
// returns the normalized execution time (1.0 = no overhead), the metric
// of the paper's Figures 8, 9, 21, 24, 25 and 26. Cancelling ctx stops
// whichever of the two simulations is in flight.
func SlowdownContext(ctx context.Context, cfg Config, spec WorkloadSpec, opt RunOptions) (float64, error) {
	base := cfg
	base.Secure = false
	ub, err := RunContext(ctx, base, spec, opt)
	if err != nil {
		return 0, fmt.Errorf("baseline: %w", err)
	}
	sec, err := RunContext(ctx, cfg, spec, opt)
	if err != nil {
		return 0, err
	}
	return float64(sec.Cycles) / float64(ub.Cycles), nil
}

// ExperimentParams sizes a table/figure reproduction.
type ExperimentParams = experiments.Params

// ExperimentTable is a reproduced table or figure.
type ExperimentTable = experiments.Table

// Experiments returns the available experiment names (tables and figures
// of the paper plus the repository's ablations), sorted. The list is a
// view of the experiments registry, the same source of truth behind
// RunExperimentContext and cmd/secbench.
func Experiments() []string { return experiments.Names() }

// RunExperimentContext reproduces one table or figure by name. Cancelling
// ctx stops the underlying sweep between simulations and returns ctx's
// error. Identical (workload, config, options) cells are simulated once
// per process and served from the sweep engine's cache afterwards; supply
// p.Engine to isolate or observe a run. An unregistered name yields an
// error satisfying errors.Is(err, ErrUnknownExperiment).
func RunExperimentContext(ctx context.Context, name string, p ExperimentParams) (*ExperimentTable, error) {
	runner, err := experiments.Lookup(name)
	if err != nil {
		return nil, err
	}
	return runner(ctx, p)
}

// DefaultExperimentParams returns 4-GPU parameters at the given workload
// scale (1.0 reproduces the full evaluation size).
func DefaultExperimentParams(scale float64) ExperimentParams {
	return experiments.DefaultParams(scale)
}

// Sentinel errors of the public surface; match with errors.Is. They are
// returned (wrapped, with context) by experiment lookup, workload lookup,
// campaign submission, and journal resume verification.
var (
	// ErrUnknownExperiment: a name not in the experiment registry.
	ErrUnknownExperiment = experiments.ErrUnknownExperiment
	// ErrUnknownWorkload: an abbreviation not in the workload registry.
	ErrUnknownWorkload = workload.ErrUnknownWorkload
	// ErrParamsMismatch: a resume presented different campaign
	// parameters than the journal records.
	ErrParamsMismatch = store.ErrParamsMismatch
)

// CampaignSpec is the options struct describing one campaign — the
// submission surface shared by the library, the CLI, and the
// coordinator.
type CampaignSpec = campaign.Spec

// CampaignStatus is a campaign's externally visible state.
type CampaignStatus = campaign.Status

// CampaignTable is one finished experiment table (rendered text + CSV).
type CampaignTable = campaign.TableResult

// Client is the typed HTTP client for a campaign coordinator's v1 API.
type Client = campaign.Client

// NewClient returns a Client for the coordinator at baseURL (e.g.
// "http://127.0.0.1:8123") using a default HTTP client.
func NewClient(baseURL string) *Client { return campaign.NewClient(baseURL, nil) }

// CoordinatorOptions configures a campaign coordinator: lease TTL, bearer
// token, TLS, listener, quorum verification, admission limits, and
// graceful drain.
type CoordinatorOptions = campaign.Options

// ServeOptions configures Serve and CoordinatorHandler.
type ServeOptions struct {
	// StoreDir is the shared content-addressed result store directory
	// ("" disables durability; workers then deliver results only over
	// the publish call). With a store, the coordinator also journals
	// campaign lifecycles to <StoreDir>/coordinator.jsonl and a
	// restarted coordinator re-submits campaigns that were running.
	StoreDir string
	// CoordinatorOptions holds every other setting; its Store is the
	// one opened at StoreDir.
	CoordinatorOptions
}

// coordinatorOptions opens the store at StoreDir, if any, and returns
// the coordinator options that carry it.
func (o ServeOptions) coordinatorOptions() (CoordinatorOptions, error) {
	opts := o.CoordinatorOptions
	if o.StoreDir != "" {
		st, err := store.Open(o.StoreDir, store.Options{SimDigest: store.BinaryDigest()})
		if err != nil {
			return opts, err
		}
		opts.Store = st
	}
	return opts, nil
}

// Serve runs a campaign coordinator on addr until ctx is cancelled: the
// versioned HTTP+JSON API accepts campaign submissions (POST
// /v1/campaigns), serves status and finished tables, and hands sweep
// cells to polling workers under time-bounded leases. Workers are
// separate processes (secbench -worker -coordinator=URL) sharing the
// store directory, or remote ones publishing over the API.
func Serve(ctx context.Context, addr string, opts ServeOptions) error {
	co, err := opts.coordinatorOptions()
	if err != nil {
		return err
	}
	return campaign.Serve(ctx, addr, co)
}

// CoordinatorHandler returns the coordinator API as an http.Handler for
// embedding into an existing server; call the returned func to close the
// coordinator when done. Most callers want Serve instead.
func CoordinatorHandler(opts ServeOptions) (http.Handler, func(), error) {
	co, err := opts.coordinatorOptions()
	if err != nil {
		return nil, nil, err
	}
	c := campaign.NewCoordinator(co)
	return c.Handler(), c.Close, nil
}

// CampaignHealth is the coordinator's /v1/healthz payload: liveness
// plus queue depth, active leases, lease expirations, and per-campaign
// progress — the metrics a worker autoscaler consumes via
// Client.Health.
type CampaignHealth = campaign.Health
