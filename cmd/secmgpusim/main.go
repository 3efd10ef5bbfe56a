// Command secmgpusim runs one workload on a simulated secure multi-GPU
// system and prints a detailed report: execution time, slowdown against the
// unsecure baseline, traffic breakdown, OTP latency-hiding distribution,
// batching and migration statistics.
//
// Usage:
//
//	secmgpusim -workload mm -gpus 4 -scheme dynamic -batching -scale 0.25
//	secmgpusim -workload syr2k -scheme private -otp 16
//	secmgpusim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"secmgpu"
	"secmgpu/internal/prof"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
)

// stopProfiles flushes any active -cpuprofile/-memprofile before the
// process exits; die and main's return path both route through it.
var stopProfiles = func() {}

// die reports err and exits with the given code, flushing profiles first.
func die(code int, args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"secmgpusim:"}, args...)...)
	stopProfiles()
	os.Exit(code)
}

func main() {
	wl := flag.String("workload", "mm", "workload abbreviation (see -list)")
	gpus := flag.Int("gpus", 4, "number of GPUs")
	schemeName := flag.String("scheme", "private", "otp scheme: unsecure|private|shared|cached|dynamic")
	batching := flag.Bool("batching", false, "enable security metadata batching")
	otpMult := flag.Int("otp", 4, "OTP multiplier N (the paper's 'OTP Nx')")
	scale := flag.Float64("scale", 0.25, "workload scale (1.0 = full size)")
	seed := flag.Int64("seed", 1, "workload seed")
	aesLat := flag.Uint64("aes-latency", 40, "AES-GCM latency in cycles")
	functional := flag.Bool("functional", false, "run real encryption and MAC verification")
	dropRate := flag.Float64("drop-rate", 0, "per-link probability of losing a protected message in flight")
	corruptRate := flag.Float64("corrupt-rate", 0, "per-link probability of corrupting a protected message in flight")
	dupRate := flag.Float64("dup-rate", 0, "per-link probability of duplicating a protected message in flight")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault profile's per-link generators")
	storeDir := flag.String("store", "", "durable result store directory: identical runs are served from disk instead of re-simulating")
	list := flag.Bool("list", false, "list workloads and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	flag.Parse()

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		die(2, err)
	}
	stopProfiles = stop
	defer stopProfiles()

	if *list {
		fmt.Printf("%-8s %-22s %-12s %s\n", "abbr", "name", "suite", "class")
		for _, s := range secmgpu.Workloads() {
			fmt.Printf("%-8s %-22s %-12s %s\n", s.Abbr, s.Name, s.Suite, s.Class)
		}
		return
	}

	spec, err := secmgpu.WorkloadByAbbr(*wl)
	if err != nil {
		die(2, err)
	}

	cfg := secmgpu.DefaultConfig(*gpus)
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.OTPMultiplier = *otpMult
	cfg.AESGCMLatency = *aesLat
	cfg.Batching = *batching
	cfg.Faults = secmgpu.FaultProfile{
		DropRate:      *dropRate,
		CorruptRate:   *corruptRate,
		DuplicateRate: *dupRate,
		Seed:          *faultSeed,
	}
	switch strings.ToLower(*schemeName) {
	case "unsecure":
		cfg.Secure = false
	case "private":
		cfg.Secure, cfg.Scheme = true, secmgpu.SchemePrivate
	case "shared":
		cfg.Secure, cfg.Scheme = true, secmgpu.SchemeShared
	case "cached":
		cfg.Secure, cfg.Scheme = true, secmgpu.SchemeCached
	case "dynamic":
		cfg.Secure, cfg.Scheme = true, secmgpu.SchemeDynamic
	default:
		die(2, fmt.Sprintf("unknown scheme %q", *schemeName))
	}

	opt := secmgpu.RunOptions{Functional: *functional}

	// With -store, runs route through a store-backed sweep engine, so a
	// (config, workload) pair already simulated by any run sharing the
	// directory — this tool or a secbench campaign — is served from disk.
	run := func(cfg secmgpu.Config, spec secmgpu.WorkloadSpec, opt secmgpu.RunOptions) (*secmgpu.Result, error) {
		return secmgpu.RunContext(context.Background(), cfg, spec, opt)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{SimDigest: store.BinaryDigest()})
		if err != nil {
			die(1, err)
		}
		eng := sweep.New(1)
		eng.SetStore(st)
		run = func(cfg secmgpu.Config, spec secmgpu.WorkloadSpec, opt secmgpu.RunOptions) (*secmgpu.Result, error) {
			res, err := eng.Run(context.Background(),
				[]sweep.Cell{{Spec: spec, Cfg: cfg, Opt: opt, Label: spec.Abbr}}, 1)
			if err != nil {
				return nil, err
			}
			return res[0], nil
		}
	}

	base := cfg
	base.Secure = false
	ub, err := run(base, spec, opt)
	if err != nil {
		die(1, "baseline:", err)
	}
	res := ub
	if cfg.Secure {
		res, err = run(cfg, spec, opt)
		if err != nil {
			die(1, err)
		}
	}

	schemeLabel := "Unsecure"
	if cfg.Secure {
		schemeLabel = fmt.Sprintf("%v (OTP %dx)", cfg.Scheme, cfg.OTPMultiplier)
		if cfg.Batching {
			schemeLabel += " + Batching"
		}
	}
	fmt.Printf("workload          %s (%s, %s, %v)\n", spec.Abbr, spec.Name, spec.Suite, spec.Class)
	fmt.Printf("system            %d GPUs + CPU, scheme %s\n", cfg.NumGPUs, schemeLabel)
	fmt.Printf("remote ops        %d\n", res.Ops)
	fmt.Printf("execution time    %d cycles\n", res.Cycles)
	if cfg.Secure {
		fmt.Printf("slowdown          %.3fx vs unsecure (%d cycles)\n",
			float64(res.Cycles)/float64(ub.Cycles), ub.Cycles)
	}
	fmt.Printf("page migrations   %d\n", res.Migrations)

	tr := res.Traffic
	fmt.Printf("traffic           %.2f MB total (%.2f MB data, %.2f MB security metadata, %.2f MB mem-protection)\n",
		mb(tr.TotalBytes()), mb(tr.BaseBytes), mb(tr.MetaBytes), mb(tr.MemProtBytes))
	if !cfg.Secure {
		return
	}
	fmt.Printf("traffic overhead  %.1f%% vs unsecure\n",
		100*(float64(tr.TotalBytes())/float64(ub.Traffic.TotalBytes())-1))

	fmt.Printf("otp send          hit %.1f%%  partial %.1f%%  miss %.1f%%\n",
		100*res.OTP.Fraction(secmgpu.Send, secmgpu.OTPHit),
		100*res.OTP.Fraction(secmgpu.Send, secmgpu.OTPPartial),
		100*res.OTP.Fraction(secmgpu.Send, secmgpu.OTPMiss))
	fmt.Printf("otp recv          hit %.1f%%  partial %.1f%%  miss %.1f%%\n",
		100*res.OTP.Fraction(secmgpu.Recv, secmgpu.OTPHit),
		100*res.OTP.Fraction(secmgpu.Recv, secmgpu.OTPPartial),
		100*res.OTP.Fraction(secmgpu.Recv, secmgpu.OTPMiss))

	fmt.Printf("acks              %d sent (%d data blocks)\n", res.Sec.ACKsSent, res.Sec.DataSent)
	if cfg.Batching {
		fmt.Printf("batching          %d Batched_MsgMACs, %d verified, %d failed, %d timeout flushes\n",
			res.Sec.BatchMACsSent, res.Sec.BatchesVerified, res.Sec.BatchesFailed, res.Sec.TimeoutFlushes)
	}
	if *functional {
		fmt.Printf("crypto            %d blocks verified, %d failures\n",
			res.Sec.DecryptOK, res.Sec.DecryptFailed)
	}
	if cfg.Faults.Active() {
		fmt.Printf("fabric faults     %d dropped, %d corrupted, %d duplicated\n",
			tr.FaultDropped, tr.FaultCorrupted, tr.FaultDuplicated)
		fmt.Printf("recovery          %d retransmits, %d ack timeouts, %d NACKs sent, %d quarantined\n",
			res.Sec.Retransmits, res.Sec.AckTimeouts, res.Sec.NACKsSent, res.Sec.Quarantined)
		fmt.Printf("poisoned          %d batches, %d blocks, %d failed ops\n",
			res.Sec.BatchesPoisoned, res.Sec.BlocksPoisoned, res.FailedOps)
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
