package campaign

import (
	"fmt"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/workload"
)

// Spec is the options struct describing one campaign: which experiments
// to reproduce and how to size and execute them. It is the single
// submission surface shared by the library (secmgpu.Client.Submit), the
// CLI (secbench -submit), and the coordinator, replacing the positional
// parameter and flag sprawl that each previously grew separately.
// Durations marshal as Go time.Duration nanoseconds.
type Spec struct {
	// Experiments names the tables/figures to reproduce (see
	// experiments.Names); empty selects all of them.
	Experiments []string `json:"experiments,omitempty"`
	// Workloads restricts the run to these Table IV abbreviations
	// (empty = all 17).
	Workloads []string `json:"workloads,omitempty"`
	// GPUs is the system size (default 4).
	GPUs int `json:"gpus,omitempty"`
	// Scale multiplies workload op counts (default 0.25; 1.0 is full
	// evaluation size).
	Scale float64 `json:"scale,omitempty"`
	// Seed drives workload generation (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds how many cells the campaign keeps outstanding
	// on the work queue at once (default 32). It is the coordinator-side
	// window, not worker concurrency: actual simulation parallelism is
	// however many workers are polling.
	Parallelism int `json:"parallelism,omitempty"`
	// Retries grants each failing cell this many extra execution
	// attempts before the campaign records the failure (default 0).
	Retries int `json:"retries,omitempty"`
	// CellTimeout bounds each cell's simulation wall time on the worker
	// (0 = unbounded). It travels with every lease grant.
	CellTimeout time.Duration `json:"cell_timeout,omitempty"`
	// Priority ranks the campaign for weighted-fair lease granting:
	// "low", "normal" (the default), or "high". A backlogged high
	// campaign receives 16 grants for every low campaign's 1, so a huge
	// batch sweep cannot starve small interactive submissions.
	Priority Priority `json:"priority,omitempty"`
	// Deadline, when positive, bounds the campaign's total wall time
	// from submission: past it the campaign fails with the tables
	// finished so far, in-flight cells are abandoned, and workers'
	// simulation contexts cancel. It is journaled with the submit
	// record, so a recovered campaign keeps its original budget.
	Deadline time.Duration `json:"deadline,omitempty"`
}

// withDefaults returns the spec with zero fields replaced by defaults.
func (s Spec) withDefaults() Spec {
	if len(s.Experiments) == 0 {
		s.Experiments = experiments.Names()
	}
	if s.GPUs == 0 {
		s.GPUs = 4
	}
	if s.Scale == 0 {
		s.Scale = 0.25
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Parallelism <= 0 {
		s.Parallelism = 32
	}
	if s.Retries < 0 {
		s.Retries = 0
	}
	if s.Priority == "" {
		s.Priority = PriorityNormal
	}
	return s
}

// Priority ranks a campaign for weighted-fair scheduling.
type Priority string

const (
	PriorityLow    Priority = "low"
	PriorityNormal Priority = "normal"
	PriorityHigh   Priority = "high"
)

// weight maps the priority onto its stride-scheduler weight.
func (p Priority) weight() int {
	switch p {
	case PriorityLow:
		return weightLow
	case PriorityHigh:
		return weightHigh
	}
	return weightNormal
}

// Validate rejects a spec naming unknown experiments or workloads (the
// errors satisfy errors.Is against experiments.ErrUnknownExperiment and
// workload.ErrUnknownWorkload) or carrying out-of-range sizing.
func (s Spec) Validate() error {
	for _, name := range s.Experiments {
		if _, err := experiments.Lookup(name); err != nil {
			return err
		}
	}
	for _, abbr := range s.Workloads {
		if _, err := workload.ByAbbr(abbr); err != nil {
			return err
		}
	}
	if s.Scale < 0 {
		return fmt.Errorf("campaign: negative scale %v", s.Scale)
	}
	if s.GPUs < 0 {
		return fmt.Errorf("campaign: negative gpu count %d", s.GPUs)
	}
	if s.CellTimeout < 0 {
		return fmt.Errorf("campaign: negative cell timeout %v", s.CellTimeout)
	}
	switch s.Priority {
	case "", PriorityLow, PriorityNormal, PriorityHigh:
	default:
		return fmt.Errorf("campaign: unknown priority %q (want low, normal, or high)", s.Priority)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("campaign: negative deadline %v", s.Deadline)
	}
	return nil
}

// params maps the spec onto experiment sizing parameters.
func (s Spec) params() experiments.Params {
	return experiments.Params{
		GPUs:        s.GPUs,
		Scale:       s.Scale,
		Seed:        s.Seed,
		Workloads:   s.Workloads,
		Parallelism: s.Parallelism,
	}
}
