package machine

import (
	"testing"

	"secmgpu/internal/config"
)

// faultyConfig is the standard lossy-fabric setup used by the recovery
// tests: 1% drop, 1% corrupt, 0.5% duplicate on every protected link.
func faultyConfig(gpus int, seed int64) config.Config {
	cfg := config.Default(gpus)
	cfg.Secure = true
	cfg.Faults = config.FaultProfile{
		DropRate:      0.01,
		CorruptRate:   0.01,
		DuplicateRate: 0.005,
		Seed:          seed,
	}
	return cfg
}

// Every secure scheme must complete every operation on a lossy fabric: the
// recovery protocol retransmits lost and damaged blocks, and poisons (fails)
// operations only after the bounded retry budget, so the simulation always
// drains.
func TestSecureSchemesCompleteOnLossyFabric(t *testing.T) {
	schemes := []struct {
		name     string
		scheme   config.OTPScheme
		batching bool
	}{
		{"private", config.OTPPrivate, false},
		{"cached", config.OTPCached, false},
		{"ours", config.OTPDynamic, true},
	}
	for _, sch := range schemes {
		t.Run(sch.name, func(t *testing.T) {
			cfg := faultyConfig(4, 7)
			cfg.Scheme = sch.scheme
			cfg.Batching = sch.batching
			res := run(t, cfg, allTraces(4, 300, 8, 3), RunOptions{})

			if res.Traffic.FaultDropped == 0 && res.Traffic.FaultCorrupted == 0 {
				t.Fatal("fault profile injected nothing; the test exercises no recovery")
			}
			if res.Ops != 4*300 {
				t.Errorf("ops=%d, want %d (every op completes or fail-completes)", res.Ops, 4*300)
			}
			if res.Sec.Retransmits == 0 {
				t.Error("no retransmissions despite injected drops")
			}
			if res.Sec.AckTimeouts == 0 && res.Sec.NACKsReceived == 0 {
				t.Error("neither timers nor NACKs fired; losses were not detected")
			}
		})
	}
}

// Corrupted blocks under lazy verification are quarantined: the batch fails
// verification, the receiver NACKs it, and the retransmitted copy verifies.
func TestCorruptionQuarantinedAndRecovered(t *testing.T) {
	cfg := faultyConfig(4, 11)
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	cfg.Faults.DropRate = 0
	cfg.Faults.DuplicateRate = 0
	cfg.Faults.CorruptRate = 0.02
	res := run(t, cfg, allTraces(4, 300, 8, 3), RunOptions{})

	if res.Traffic.FaultCorrupted == 0 {
		t.Fatal("no corruption injected")
	}
	if res.Sec.Quarantined == 0 {
		t.Error("corrupted batches produced no quarantined blocks")
	}
	if res.Sec.NACKsReceived == 0 {
		t.Error("failed batches were never NACKed")
	}
	if res.Sec.BatchesVerified == 0 {
		t.Error("no batch ever verified")
	}
}

// Functional (real-crypto) runs must survive the same fault profile: the
// corrupted ciphertext fails real MAC verification and is recovered the
// same way.
func TestFunctionalRunRecoversFromFaults(t *testing.T) {
	cfg := faultyConfig(2, 13)
	res := run(t, cfg, allTraces(2, 120, 10, 4), RunOptions{Functional: true})
	if res.Traffic.FaultCorrupted+res.Traffic.FaultDropped == 0 {
		t.Fatal("fault profile injected nothing")
	}
	if res.Ops != 2*120 {
		t.Errorf("ops=%d, want %d", res.Ops, 2*120)
	}
	if res.Sec.Retransmits == 0 {
		t.Error("no retransmissions under functional crypto")
	}
}

// Two same-seed runs of a faulty simulation must be bit-identical: the fault
// profile draws from per-link seeded generators, and every recovery timer is
// deterministic in the event order.
func TestFaultProfileDeterminism(t *testing.T) {
	make1 := func() *Result {
		cfg := faultyConfig(4, 21)
		cfg.Scheme = config.OTPDynamic
		cfg.Batching = true
		return run(t, cfg, allTraces(4, 250, 8, 3), RunOptions{})
	}
	a, b := make1(), make1()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles differ across same-seed runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Sec != b.Sec {
		t.Errorf("security stats differ across same-seed runs:\n%+v\n%+v", a.Sec, b.Sec)
	}
	if a.Traffic.TotalBytes() != b.Traffic.TotalBytes() ||
		a.Traffic.FaultDropped != b.Traffic.FaultDropped ||
		a.Traffic.FaultCorrupted != b.Traffic.FaultCorrupted ||
		a.Traffic.FaultDuplicated != b.Traffic.FaultDuplicated {
		t.Errorf("traffic differs across same-seed runs")
	}
	if a.FailedOps != b.FailedOps || a.StaleCompletions != b.StaleCompletions {
		t.Errorf("recovery accounting differs: (%d,%d) vs (%d,%d)",
			a.FailedOps, a.StaleCompletions, b.FailedOps, b.StaleCompletions)
	}
}

// On a healthy fabric the recovery protocol must be a behavioral no-op: no
// timer ever fires, so the run's cycles and traffic are those of a protocol
// that only detects faults, and no recovery activity shows. The healthy
// 4-GPU Ours cell is pinned to the cycles and bytes it read while the
// detect-only protocol could still be selected and matched it exactly.
func TestRecoveryIsNoOpOnHealthyFabric(t *testing.T) {
	cfg := config.Default(4)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	res := run(t, cfg, allTraces(4, 250, 8, 3), RunOptions{})

	const wantCycles, wantBytes = 2874, 106809
	if res.Cycles != wantCycles {
		t.Errorf("healthy-run timing: %d cycles, want %d", res.Cycles, wantCycles)
	}
	if got := res.Traffic.TotalBytes(); got != wantBytes {
		t.Errorf("healthy-run traffic: %d bytes, want %d", got, wantBytes)
	}
	sec := res.Sec
	if sec.Retransmits != 0 || sec.BatchesPoisoned != 0 || sec.NACKsSent != 0 ||
		sec.AckTimeouts != 0 || sec.StaleACKs != 0 {
		t.Errorf("recovery activity on a healthy fabric: %+v", sec)
	}
	if res.FailedOps != 0 {
		t.Errorf("failed ops on a healthy fabric: %d", res.FailedOps)
	}
}

// An unsecure run carries no protected messages, so the fault profile has
// nothing to touch and the run matches a healthy one exactly.
func TestUnsecureImmuneToFaultProfile(t *testing.T) {
	healthy := config.Default(4)
	healthy.Secure = false
	faulty := faultyConfig(4, 31)
	faulty.Secure = false

	a := run(t, healthy, allTraces(4, 200, 8, 3), RunOptions{})
	b := run(t, faulty, allTraces(4, 200, 8, 3), RunOptions{})
	if a.Cycles != b.Cycles {
		t.Errorf("fault profile changed the unsecure baseline: %d vs %d", a.Cycles, b.Cycles)
	}
	if b.Traffic.FaultDropped+b.Traffic.FaultCorrupted+b.Traffic.FaultDuplicated != 0 {
		t.Errorf("faults were injected into unprotected traffic: %+v", b.Traffic)
	}
}
