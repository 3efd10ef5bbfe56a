package machine

import (
	"strings"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/sim"
	"secmgpu/internal/workload"
)

// outageConfig is the standard setup for scripted-outage tests: secure
// dynamic scheme with batching, and recovery timers shrunk so the failure
// streak crosses the resync threshold within a short outage window.
func outageConfig(gpus int) config.Config {
	cfg := config.Default(gpus)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	cfg.RetransTimeout = 5_000
	cfg.StaleBatchTimeout = 2_500
	return cfg
}

// heavyOutages returns cfg at the degradation experiment's "heavy" outage
// level, seeded with seed: its link and node outage profile, the recovery
// timers outageConfig shrinks, and its short rekey epoch.
func heavyOutages(cfg config.Config, seed int64) config.Config {
	cfg.Outages = config.OutageProfile{
		LinkMTBF: 30_000, LinkOutage: 6_000,
		NodeMTBF: 100_000, NodeOutage: 6_000,
		Seed: seed,
	}
	cfg.RetransTimeout = 5_000
	cfg.StaleBatchTimeout = 2_500
	cfg.RekeyEpoch = 128
	return cfg
}

// A link that goes dark in the middle of a page-migration workload must not
// lose or poison anything: the sender's failure streak escalates to a
// counter-resync handshake, the handshake itself survives the outage through
// unbounded retries, and once the link returns every parked payload is
// retransmitted under fresh counters and the run completes in full.
func TestLinkOutageDuringMigrationRecovers(t *testing.T) {
	cfg := outageConfig(2)
	cfg.MigrationThreshold = 4

	// GPU1 hammers one page homed on GPU2 far past the migration threshold;
	// GPU2 stays essentially idle.
	trace := make([]workload.Op, 300)
	for i := range trace {
		trace[i] = workload.Op{Gap: 30, Kind: workload.Read, Home: 2, Page: 1, Block: uint8(i % 64)}
	}
	idle := []workload.Op{{Gap: 1, Kind: workload.Read, Home: 1, Page: 0, Block: 0}}

	// Functional crypto: recovery must end with every payload actually
	// verifying, not just arriving.
	sys, err := New(cfg, [][]workload.Op{trace, idle}, RunOptions{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	// The GPU1-GPU2 link goes dark while the remote accesses that drive the
	// migration decision are still in flight — before the page can migrate
	// and localize the traffic — and stays down long enough to exhaust
	// several resync retries.
	sys.Fabric().ForceLinkOutage(1, 2, 500, 40_000)

	res, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if res.Traffic.OutageDropped == 0 {
		t.Fatal("outage blackholed nothing; the test exercises no recovery")
	}
	if res.Sec.ResyncsInitiated == 0 || res.Sec.ResyncsCompleted == 0 {
		t.Errorf("resync handshake never ran: initiated=%d completed=%d",
			res.Sec.ResyncsInitiated, res.Sec.ResyncsCompleted)
	}
	if res.Sec.ResyncRetries == 0 {
		t.Error("no resync retries despite handshake frames crossing a dark link")
	}
	if res.Sec.BlocksPoisoned != 0 || res.Sec.BatchesPoisoned != 0 {
		t.Errorf("outage poisoned data: blocks=%d batches=%d (resync must supersede poisoning)",
			res.Sec.BlocksPoisoned, res.Sec.BatchesPoisoned)
	}
	if res.FailedOps != 0 {
		t.Errorf("failedOps=%d; every operation must complete cleanly after recovery", res.FailedOps)
	}
	if res.Ops != 301 {
		t.Errorf("ops=%d, want 301", res.Ops)
	}
	if res.Sec.DecryptFailed != 0 || res.Sec.BatchesFailed != 0 {
		t.Errorf("recovered payloads failed verification: %d decrypt, %d batch",
			res.Sec.DecryptFailed, res.Sec.BatchesFailed)
	}
	if res.Sec.DecryptOK == 0 {
		t.Error("nothing verified under functional crypto")
	}
	if res.Migrations == 0 {
		t.Error("no migration despite heavy reuse")
	}
	// The engine stops the moment the last op retires, so messages still in
	// flight at shutdown are legitimately outstanding — but their count is
	// bounded by the request window. A recovery path that dropped messages
	// without releasing them would grow past it.
	if n := sys.Fabric().Outstanding(); n > cfg.OutstandingRequests {
		t.Errorf("%d pooled messages outstanding at shutdown (window %d); recovery is leaking",
			n, cfg.OutstandingRequests)
	}
}

// Crossing a key epoch on a healthy fabric rotates the pair keys through the
// drain-then-rotate handshake with zero data loss: every block still
// verifies under real crypto, nothing is poisoned, and the run is
// bit-deterministic.
func TestRekeyEpochRotationNoLoss(t *testing.T) {
	mk := func() *Result {
		cfg := config.Default(2)
		cfg.Secure = true
		cfg.Scheme = config.OTPDynamic
		cfg.Batching = true
		cfg.RekeyEpoch = 64
		return run(t, cfg, allTraces(2, 250, 8, 3), RunOptions{Functional: true})
	}
	res := mk()

	if res.Sec.Rekeys == 0 {
		t.Fatal("no epoch rotation despite counters crossing RekeyEpoch")
	}
	if res.Sec.DecryptFailed != 0 || res.Sec.BatchesFailed != 0 {
		t.Errorf("rekeying broke verification: %d decrypt failures, %d batch failures",
			res.Sec.DecryptFailed, res.Sec.BatchesFailed)
	}
	if res.Sec.DecryptOK == 0 {
		t.Error("nothing verified")
	}
	if res.Sec.BlocksPoisoned != 0 || res.FailedOps != 0 {
		t.Errorf("rekeying lost data: poisoned=%d failedOps=%d", res.Sec.BlocksPoisoned, res.FailedOps)
	}
	if res.Ops != 2*250 {
		t.Errorf("ops=%d, want %d", res.Ops, 2*250)
	}

	res2 := mk()
	if res.Cycles != res2.Cycles || res.Sec != res2.Sec {
		t.Errorf("rekeying nondeterministic: %d vs %d cycles\n%+v\n%+v",
			res.Cycles, res2.Cycles, res.Sec, res2.Sec)
	}
}

// A permanently wedged channel must not hang the simulation: the watchdog
// observes the progress counter freeze while the resync handshake retries
// into a dead link, stops the engine, and surfaces a diagnosis naming the
// stuck handshake.
func TestWatchdogTripsOnWedgedChannel(t *testing.T) {
	cfg := outageConfig(2)
	// An outage profile that is active (arming the watchdog) but whose
	// random windows are astronomically rare — the only outage is scripted.
	cfg.Outages = config.OutageProfile{LinkMTBF: 1 << 40, LinkOutage: 1_000, Seed: 9}
	cfg.WatchdogInterval = 200_000

	trace := make([]workload.Op, 50)
	for i := range trace {
		trace[i] = workload.Op{Gap: 30, Kind: workload.Read, Home: 2, Page: 1, Block: uint8(i % 64)}
	}
	idle := []workload.Op{{Gap: 1, Kind: workload.Read, Home: 0, Page: 0, Block: 0}}

	sys, err := New(cfg, [][]workload.Op{trace, idle}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Fabric().ForceLinkOutage(1, 2, 0, sim.MaxCycle)

	_, err = sys.Run()
	if err == nil {
		t.Fatal("run completed despite a permanently dark link")
	}
	if !strings.Contains(err.Error(), "watchdog tripped") {
		t.Fatalf("error is not a watchdog trip: %v", err)
	}
	if !strings.Contains(err.Error(), `"active":true`) {
		t.Errorf("diagnosis does not name the stuck handshake: %v", err)
	}
}
