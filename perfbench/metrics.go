package main

import "secmgpu/internal/experiments"

// metricDef names one reported metric. Moves, for a per-layer metric,
// says which end-to-end metric on which workload the layer should move,
// and where it should stay flat; it is printed beside the value in traced
// runs so a claimed gain can be checked against it. METRICS.md defines
// each metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd are the metrics every untraced run reports in its result line,
// on every workload. Each is defined, and never zero, on all four.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// reportedOnly are end-to-end metrics printed by name on the workloads
// they are defined on, but not in the result line: each is undefined on
// some workload, and failed_frac is 0 on a healthy run (the result line
// carries it as failed/attempted).
var reportedOnly = []metricDef{
	{Name: "sim_ops_per_s", Unit: "ops/s", Better: "higher"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
	{Name: "paper_gap_pp", Unit: "pp", Better: "lower"},
	{Name: "first_table_s", Unit: "s", Better: "lower"},
	{Name: "priority_wait_s", Unit: "s", Better: "lower"},
	{Name: "warm_wall_s", Unit: "s", Better: "lower"},
}

// perLayer are the metrics every traced run reports, on every workload. A
// layer the workload does not exercise reports 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.traces_s", "s", "lower", "wall_s on figures, setup_s on cell16; flat in wall_s on cell16"},
		{"workload.trace_reuse_frac", "ratio", "lower", "bounds what a trace cache could save on figures; 0 on cell16"},
		{"machine.new_s", "s", "lower", "wall_s on figures, setup_s everywhere; flat in wall_s on cell16"},
		{"machine.run_s", "s", "lower", "sim_ops_per_s on cell16, wall_s on figures"},
		{"machine.host_ns_per_msg", "ns/msg", "lower", "sim_ops_per_s on cell16, wall_s on figures"},
		{"machine.alloc_b_per_op", "B/op", "lower", "sim_ops_per_s on cell16, wall_s on figures, peak_rss_mb"},

		{"sim.cycles", "cycles", "lower", "model only: identical unless the model changes (cell16, functional)"},
		{"sim.ops", "count", "higher", "model only (cell16, functional)"},
		{"interconnect.messages", "count", "lower", "model only (cell16, functional)"},
		{"interconnect.meta_bytes_frac", "ratio", "lower", "model only (cell16, functional)"},
		{"otp.send_hidden_frac", "ratio", "higher", "model only (cell16, functional)"},
		{"otp.recv_hidden_frac", "ratio", "higher", "model only (cell16, functional)"},
		{"otp.stall_cycles", "cycles", "lower", "model only (cell16, functional)"},
		{"secure.batch_macs", "count", "lower", "model only (cell16, functional)"},
		{"secure.acks_sent", "count", "lower", "model only (cell16, functional)"},
		{"secure.timeout_flushes", "count", "lower", "model only (cell16, functional)"},
		{"migration.pages", "count", "lower", "model only (cell16, functional)"},

		{"sweep.cells_requested", "count", "lower", "wall_s on figures; no effect on cell16"},
		{"sweep.cells_simulated", "count", "lower", "wall_s on figures; no effect on cell16"},
		{"sweep.dedup_frac", "ratio", "higher", "wall_s on figures; no effect on cell16"},
		{"sweep.cell_s_p50", "s", "lower", "wall_s on figures; no effect on cell16"},
		{"sweep.cell_s_p99", "s", "lower", "wall_s on figures; no effect on cell16"},
		{"sweep.cell_s_max", "s", "lower", "wall_s on figures; no effect on cell16"},
		{"sweep.busy_frac", "ratio", "higher", "wall_s on figures; no effect on cell16"},
	}
	for _, name := range experiments.Names() {
		defs = append(defs, metricDef{"experiments." + name + "_s", "s", "lower", "wall_s on figures"})
	}
	defs = append(defs, []metricDef{
		{"crypto.pad_ns", "ns", "lower", "sim_ops_per_s on functional; flat on cell16 and figures"},
		{"crypto.mac_ns", "ns", "lower", "sim_ops_per_s on functional; flat on cell16 and figures"},
		{"crypto.digest_ns_per_block", "ns", "lower", "sim_ops_per_s on functional; flat on cell16 and figures"},

		{"store.puts", "count", "lower", "wall_s on campaign"},
		{"store.put_ms", "ms", "lower", "wall_s on campaign"},
		{"store.hit_frac", "ratio", "higher", "warm_wall_s on campaign"},
		{"store.get_ms", "ms", "lower", "warm_wall_s on campaign"},

		{"campaign.lease_ms_p50", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign; no effect elsewhere"},
		{"campaign.lease_ms_p99", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.complete_ms_p50", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.complete_ms_p99", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.status_ms_p50", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.empty_lease_frac", "ratio", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.rpc_errors", "count", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.worker_busy_frac", "ratio", "higher", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.dup_exec_frac", "ratio", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.deduped", "count", "higher", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.hedged", "count", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.votes", "count", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.queue_wait_ms_p50", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
		{"campaign.queue_wait_ms_p99", "ms", "lower", "wall_s, first_table_s, priority_wait_s on campaign"},
	}...)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m + "_frac", "ratio", "lower", "wall_s or sim_ops_per_s of the workload where it is large"})
	}
	defs = append(defs, metricDef{"trace.overhead_frac", "ratio", "lower", "traced vs untraced wall_s of this run"})
	return defs
}
