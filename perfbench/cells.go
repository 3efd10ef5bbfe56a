package main

import (
	"context"
	"runtime"
	"time"

	"secmgpu/internal/config"
	"secmgpu/internal/crypto"
	"secmgpu/internal/experiments"
	"secmgpu/internal/machine"
	"secmgpu/internal/otp"
	"secmgpu/internal/store"
	"secmgpu/internal/workload"
)

// Sizes of the single-cell workloads. cell16 is large enough that set-up
// is a few percent of a pass and the event loop dominates; functional is
// a 4-GPU cell with real AES-CTR pads and GHASH MACs on every transfer.
const (
	cell16Scale     = 0.5
	functionalScale = 0.25
)

// runCell16 simulates one secure 16-GPU mm cell under Ours (Dynamic +
// Batching), calling machine.New and RunContext directly as secmgpusim
// does, with the kernel chosen automatically (RunOptions.Workers = 0).
func runCell16(r *run) error {
	return runCell(r, 16, cell16Scale, machine.RunOptions{})
}

// runFunctional simulates one 4-GPU mm cell under Ours with functional
// crypto, and checks that nothing failed to decrypt or verify.
func runFunctional(r *run) error {
	return runCell(r, 4, functionalScale, machine.RunOptions{Functional: true})
}

func runCell(r *run, gpus int, scale float64, opt machine.RunOptions) error {
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		return err
	}
	cfg := config.Default(gpus)
	cfg.Seed = r.seed
	cfg.Scale = scale
	experiments.Ours4x.Mutate(&cfg)

	var first string
	var last *machine.Result
	err = r.loop(3, func(i int, tr *tracer) (passOut, error) {
		pass := tr.begin("pass", 0)
		var ms0 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		var traces [][]workload.Op
		tr.do("workload.Traces", pass, func(int64) {
			traces = workload.Traces(spec, cfg.NumGPUs, cfg.Scale, cfg.Seed)
		})
		t1 := time.Now()
		var sys *machine.System
		tr.do("machine.New", pass, func(int64) { sys, err = machine.New(cfg, traces, opt) })
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		var res *machine.Result
		tr.do("machine.RunContext", pass, func(int64) { res, err = sys.RunContext(context.Background()) })
		t3 := time.Now()
		tr.end(pass)
		r.attempted++
		if err != nil {
			r.failed++
			return nil, err
		}
		digest, derr := store.DigestJSON(res)
		if derr != nil {
			return nil, derr
		}
		if i == 0 {
			first = digest
		}
		r.check("result digest identical across passes", digest == first, "pass %d digest %s, pass 0 %s", i, digest, first)
		if opt.Functional {
			s := res.Sec
			r.check("functional crypto clean", s.DecryptFailed == 0 && s.BatchesFailed == 0 && s.ReplaysDropped == 0,
				"pass %d: DecryptFailed=%d BatchesFailed=%d ReplaysDropped=%d", i, s.DecryptFailed, s.BatchesFailed, s.ReplaysDropped)
			r.check("functional crypto ran", s.BatchesVerified > 0, "pass %d verified no batch", i)
		}
		last = res
		wall := t3.Sub(t0).Seconds()
		out := passOut{
			"setup_s":       t2.Sub(t0).Seconds(),
			"wall_s":        wall,
			"sim_ops_per_s": float64(res.Ops) / wall,
		}
		if tr != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			run := t3.Sub(t2)
			out["workload.traces_s"] = t1.Sub(t0).Seconds()
			out["workload.trace_reuse_frac"] = 0
			out["machine.new_s"] = t2.Sub(t1).Seconds()
			out["machine.run_s"] = run.Seconds()
			out["machine.host_ns_per_msg"] = ratio(float64(run.Nanoseconds()), float64(res.Traffic.Messages))
			out["machine.alloc_b_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(res.Ops))
			for k, v := range simStats(res) {
				out[k] = v
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	if r.traced && opt.Functional && last != nil {
		// Functional seal and receive each derive one pad and one MAC per
		// data block; every closed and every checked batch folds its
		// MACs with one Digest of 16-byte blocks.
		s := last.Sec
		blocks := float64(s.DataSent + s.DataReceived)
		batches := float64(s.BatchMACsSent + s.BatchesVerified + s.BatchesFailed)
		r.costs = append(r.costs,
			costRow{Layer: "crypto.Generate", Metric: "crypto.pad_ns", Unit: time.Nanosecond, Calls: blocks, Source: "DataSent+DataReceived"},
			costRow{Layer: "crypto.MAC", Metric: "crypto.mac_ns", Unit: time.Nanosecond, Calls: blocks, Source: "DataSent+DataReceived"},
			costRow{Layer: "crypto.Digest", Metric: "crypto.digest_ns_per_block", Unit: time.Nanosecond,
				Calls: batches * float64(cfg.BatchSize*crypto.MACBytes) / 16, Source: "16B blocks of batch MACs sent and checked"},
		)
	}
	return nil
}

// simStats are the simulated statistics of one result. They are
// deterministic in the inputs, so they compare exactly across commits.
func simStats(res *machine.Result) passOut {
	tr := res.Traffic
	return passOut{
		"sim.cycles":                   float64(res.Cycles),
		"sim.ops":                      float64(res.Ops),
		"interconnect.messages":        float64(tr.Messages),
		"interconnect.meta_bytes_frac": ratio(float64(tr.MetaBytes), float64(tr.BaseBytes+tr.MetaBytes+tr.MemProtBytes)),
		"otp.send_hidden_frac":         res.OTP.HiddenFraction(otp.Send),
		"otp.recv_hidden_frac":         res.OTP.HiddenFraction(otp.Recv),
		"otp.stall_cycles":             float64(res.OTP.Stall[otp.Send] + res.OTP.Stall[otp.Recv]),
		"secure.batch_macs":            float64(res.Sec.BatchMACsSent),
		"secure.acks_sent":             float64(res.Sec.ACKsSent),
		"secure.timeout_flushes":       float64(res.Sec.TimeoutFlushes),
		"migration.pages":              float64(res.Migrations),
	}
}
