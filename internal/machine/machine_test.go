package machine

import (
	"encoding/json"
	"fmt"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/migration"
	"secmgpu/internal/otp"
	"secmgpu/internal/workload"
)

// synthetic trace: count ops from one GPU, alternating reads/writes across
// all peers, gap cycles apart.
func synthTrace(gpu, numGPUs, count int, gap uint32, writeEvery int) []workload.Op {
	ops := make([]workload.Op, 0, count)
	dests := []int{0}
	for g := 1; g <= numGPUs; g++ {
		if g != gpu {
			dests = append(dests, g)
		}
	}
	for i := 0; i < count; i++ {
		kind := workload.Read
		if writeEvery > 0 && i%writeEvery == 0 {
			kind = workload.Write
		}
		ops = append(ops, workload.Op{
			Gap:   gap,
			Kind:  kind,
			Home:  uint8(dests[i%len(dests)]),
			Page:  uint32(i % 64),
			Block: uint8(i % 64),
		})
	}
	return ops
}

func allTraces(numGPUs, count int, gap uint32, writeEvery int) [][]workload.Op {
	traces := make([][]workload.Op, numGPUs)
	for g := 1; g <= numGPUs; g++ {
		traces[g-1] = synthTrace(g, numGPUs, count, gap, writeEvery)
	}
	return traces
}

func run(t *testing.T, cfg config.Config, traces [][]workload.Op, opt RunOptions) *Result {
	t.Helper()
	sys, err := New(cfg, traces, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestUnsecureRunCompletes(t *testing.T) {
	cfg := config.Default(4)
	res := run(t, cfg, allTraces(4, 500, 20, 4), RunOptions{})
	if res.Ops != 4*500 {
		t.Errorf("ops=%d, want 2000", res.Ops)
	}
	if res.Cycles == 0 {
		t.Error("zero execution time")
	}
	if res.Traffic.TotalBytes() == 0 || res.Traffic.MetaBytes != 0 {
		t.Errorf("traffic base=%d meta=%d; unsecure run must move data without metadata",
			res.Traffic.BaseBytes, res.Traffic.MetaBytes)
	}
	if res.OTP.Uses(otp.Send) != 0 {
		t.Error("unsecure run used OTPs")
	}
}

// resultDigest reduces a Result to a comparable byte string covering every
// exported field (histograms and series marshal their full contents).
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestDeterminism runs each case twice and requires byte-identical full
// results: cycles, traffic accounting, OTP and endpoint statistics, burst
// histograms, series, and migrations. The cases span topology shapes,
// trace shapes that make GPUs finish far apart, per-interval tracing, and
// the fault and outage profiles.
func TestDeterminism(t *testing.T) {
	secure := func(gpus int, switched bool) config.Config {
		cfg := config.Default(gpus)
		cfg.Secure = true
		cfg.Scheme = config.OTPDynamic
		cfg.SwitchTopology = switched
		return cfg
	}
	// uneven gives every GPU a different trace length and gap.
	uneven := func(gpus, seed int) [][]workload.Op {
		traces := make([][]workload.Op, gpus)
		for g := 1; g <= gpus; g++ {
			count := 300 + 150*((g+seed)%3)
			gap := uint32(10 + 7*((g+seed)%4))
			traces[g-1] = synthTrace(g, gpus, count, gap, 3+seed)
		}
		return traces
	}
	ops16 := 600
	if testing.Short() {
		ops16 = 200
	}
	batched := secure(4, false)
	batched.Batching = true
	faulty := secure(8, false)
	faulty.ResyncThreshold = 4
	faulty.Faults.DropRate = 0.01
	faulty.Faults.Seed = 7
	outages := outageConfig(8)
	outages.Outages = config.OutageProfile{LinkMTBF: 200_000, LinkOutage: 5_000, Seed: 3}

	cases := []struct {
		name   string
		cfg    config.Config
		traces [][]workload.Op
		opt    RunOptions
	}{
		{"gpus=4/p2p/batched", batched, allTraces(4, 400, 15, 3), RunOptions{}},
		{"gpus=2/p2p", secure(2, false), allTraces(2, 600, 20, 4), RunOptions{}},
		{"gpus=4/p2p", secure(4, false), allTraces(4, 600, 20, 4), RunOptions{}},
		{"gpus=8/switch", secure(8, true), allTraces(8, 600, 20, 4), RunOptions{}},
		{"gpus=16/switch", secure(16, true), allTraces(16, ops16, 20, 4), RunOptions{}},
		{"gpus=8/switch/traced", secure(8, true), allTraces(8, 400, 25, 3), RunOptions{TraceComms: true, TraceInterval: 5000}},
		{"gpus=8/switch/uneven=0", secure(8, true), uneven(8, 0), RunOptions{}},
		{"gpus=8/switch/uneven=1", secure(8, true), uneven(8, 1), RunOptions{}},
		{"gpus=8/switch/uneven=2", secure(8, true), uneven(8, 2), RunOptions{}},
		{"gpus=8/faults", faulty, allTraces(8, 100, 20, 4), RunOptions{}},
		{"gpus=8/outages", outages, allTraces(8, 300, 20, 4), RunOptions{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := resultDigest(t, run(t, tc.cfg, tc.traces, tc.opt))
			b := resultDigest(t, run(t, tc.cfg, tc.traces, tc.opt))
			if a != b {
				t.Errorf("nondeterministic result\nfirst:  %.200s\nsecond: %.200s", a, b)
			}
		})
	}
}

func TestSecureSlowerThanUnsecure(t *testing.T) {
	base := config.Default(4)
	traces := allTraces(4, 800, 10, 4)
	unsec := run(t, base, traces, RunOptions{})

	sec := base
	sec.Secure = true
	sec.Scheme = config.OTPPrivate
	secRes := run(t, sec, allTraces(4, 800, 10, 4), RunOptions{})
	if secRes.Cycles <= unsec.Cycles {
		t.Errorf("secure %d cycles <= unsecure %d", secRes.Cycles, unsec.Cycles)
	}
	if secRes.Traffic.MetaBytes == 0 {
		t.Error("secure run accounted no metadata traffic")
	}
	if secRes.OTP.Uses(otp.Send) == 0 || secRes.OTP.Uses(otp.Recv) == 0 {
		t.Error("secure run did not use OTPs in both directions")
	}
}

func TestSharedWorseThanPrivate(t *testing.T) {
	mk := func(scheme config.OTPScheme) *Result {
		cfg := config.Default(4)
		cfg.Secure = true
		cfg.Scheme = scheme
		return run(t, cfg, allTraces(4, 800, 5, 4), RunOptions{})
	}
	private := mk(config.OTPPrivate)
	shared := mk(config.OTPShared)
	if shared.Cycles <= private.Cycles {
		t.Errorf("Shared %d cycles <= Private %d; paper ordering violated", shared.Cycles, private.Cycles)
	}
}

func TestBatchingReducesTrafficAndTime(t *testing.T) {
	mk := func(batching bool) *Result {
		cfg := config.Default(4)
		cfg.Secure = true
		cfg.Scheme = config.OTPDynamic
		cfg.Batching = batching
		return run(t, cfg, allTraces(4, 1000, 3, 4), RunOptions{})
	}
	plain := mk(false)
	batched := mk(true)
	if batched.Traffic.MetaBytes >= plain.Traffic.MetaBytes {
		t.Errorf("batched meta=%d >= conventional meta=%d", batched.Traffic.MetaBytes, plain.Traffic.MetaBytes)
	}
	if batched.Sec.BatchesVerified == 0 {
		t.Error("no batches verified")
	}
	if batched.Sec.ACKsSent >= plain.Sec.ACKsSent {
		t.Errorf("batched acks=%d >= conventional=%d", batched.Sec.ACKsSent, plain.Sec.ACKsSent)
	}
}

func TestFunctionalCryptoVerifies(t *testing.T) {
	for _, scheme := range []config.OTPScheme{config.OTPPrivate, config.OTPShared, config.OTPCached, config.OTPDynamic} {
		for _, batching := range []bool{false, true} {
			cfg := config.Default(2)
			cfg.Secure = true
			cfg.Scheme = scheme
			cfg.Batching = batching
			res := run(t, cfg, allTraces(2, 300, 8, 3), RunOptions{Functional: true})
			if res.Sec.DecryptFailed > 0 || res.Sec.BatchesFailed > 0 {
				t.Errorf("%v batching=%v: %d decrypt failures, %d batch failures",
					scheme, batching, res.Sec.DecryptFailed, res.Sec.BatchesFailed)
			}
			if res.Sec.DecryptOK == 0 {
				t.Errorf("%v batching=%v: nothing verified", scheme, batching)
			}
		}
	}
}

func TestPageMigrationHappensAndLocalizes(t *testing.T) {
	cfg := config.Default(2)
	cfg.MigrationThreshold = 4
	// GPU1 hammers one remote page far past the threshold.
	trace := make([]workload.Op, 400)
	for i := range trace {
		trace[i] = workload.Op{Gap: 30, Kind: workload.Read, Home: 2, Page: 1, Block: uint8(i % 64)}
	}
	idle := []workload.Op{{Gap: 1, Kind: workload.Read, Home: 1, Page: 0, Block: 0}}
	res := run(t, cfg, [][]workload.Op{trace, idle}, RunOptions{})
	if res.Migrations == 0 {
		t.Fatal("no migration despite heavy reuse")
	}
	// After migration the accesses are local: far fewer read requests than
	// ops.
	if res.Traffic.Messages > 300 {
		t.Errorf("messages=%d; migration should have localized most accesses", res.Traffic.Messages)
	}
}

func TestMigrationDisabled(t *testing.T) {
	cfg := config.Default(2)
	cfg.MigrationThreshold = 0
	trace := make([]workload.Op, 100)
	for i := range trace {
		trace[i] = workload.Op{Gap: 30, Kind: workload.Read, Home: 2, Page: 1, Block: uint8(i % 64)}
	}
	idle := []workload.Op{{Gap: 1, Kind: workload.Read, Home: 1, Page: 0, Block: 0}}
	res := run(t, cfg, [][]workload.Op{trace, idle}, RunOptions{})
	if res.Migrations != 0 {
		t.Errorf("migrations=%d with policy disabled", res.Migrations)
	}
}

func TestBurstHistogramsPopulated(t *testing.T) {
	cfg := config.Default(4)
	res := run(t, cfg, allTraces(4, 2000, 2, 4), RunOptions{})
	if res.Burst16.Total() == 0 {
		t.Error("burst-16 histogram empty")
	}
	if res.Burst32.Total() == 0 {
		t.Error("burst-32 histogram empty")
	}
}

func TestTraceCommsSeries(t *testing.T) {
	cfg := config.Default(2)
	res := run(t, cfg, allTraces(2, 2000, 20, 3), RunOptions{TraceComms: true, TraceInterval: 5000})
	if len(res.SendRecvSeries) != 2 || len(res.DestSeries) != 2 {
		t.Fatalf("series: %d/%d, want 2/2", len(res.SendRecvSeries), len(res.DestSeries))
	}
	rows := res.SendRecvSeries[0].Rows()
	if len(rows) < 2 {
		t.Fatalf("only %d intervals recorded", len(rows))
	}
	var sends uint64
	for _, r := range rows {
		sends += r[0]
	}
	if sends == 0 {
		t.Error("send lane empty")
	}
}

func TestDynamicAdjustsDuringRun(t *testing.T) {
	cfg := config.Default(4)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	sys, err := New(cfg, allTraces(4, 1000, 10, 4), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	gpu1 := sys.nodes[1]
	if gpu1.dyn == nil || gpu1.dyn.Intervals() == 0 {
		t.Error("dynamic allocator never adjusted")
	}
	_ = res
}

func TestRunTwiceFails(t *testing.T) {
	cfg := config.Default(2)
	sys, err := New(cfg, allTraces(2, 10, 5, 0), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err == nil {
		t.Error("second Run did not fail")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := config.Default(4)
	if _, err := New(cfg, allTraces(3, 10, 5, 0), RunOptions{}); err == nil {
		t.Error("trace count mismatch accepted")
	}
	bad := cfg
	bad.NumGPUs = 1
	if _, err := New(bad, allTraces(1, 10, 5, 0), RunOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestAddressEncoding(t *testing.T) {
	p := pageIDOf(3, 2, 77)
	if homeOf(p) != interconnect.NodeID(3) {
		t.Errorf("home=%v, want 3", homeOf(p))
	}
	addr := addrOf(p, 5)
	if pageOf(addr) != p {
		t.Errorf("page roundtrip failed: %v != %v", pageOf(addr), p)
	}
	if addr%64 != 0 {
		t.Error("block address not 64B aligned")
	}
	q := pageIDOf(3, 4, 77) // same home+page index, different requester
	if q == p {
		t.Error("requester pools collide")
	}
	_ = migration.PageID(p)
}

func TestOracleBoundsPrivate(t *testing.T) {
	mk := func(scheme config.OTPScheme) *Result {
		cfg := config.Default(4)
		cfg.Secure = true
		cfg.Scheme = scheme
		return run(t, cfg, allTraces(4, 800, 3, 4), RunOptions{})
	}
	private := mk(config.OTPPrivate)
	oracle := mk(config.OTPOracle)
	if oracle.Cycles > private.Cycles {
		t.Errorf("Oracle %d cycles > Private %d; an always-hit pad table cannot be slower", oracle.Cycles, private.Cycles)
	}
	if oracle.OTP.HiddenFraction(otp.Send) != 1 {
		t.Error("oracle missed")
	}
}

func TestConservationInvariants(t *testing.T) {
	cfg := config.Default(4)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	res := run(t, cfg, allTraces(4, 600, 8, 3), RunOptions{})

	if res.Sec.DataSent != res.Sec.DataReceived {
		t.Errorf("data sent=%d received=%d; fabric lost messages", res.Sec.DataSent, res.Sec.DataReceived)
	}
	// The simulation stops the moment the last op retires, so trailing
	// ACKs may still be in flight — but none may be lost or duplicated.
	if res.Sec.ACKsReceived > res.Sec.ACKsSent {
		t.Errorf("acks received=%d > sent=%d", res.Sec.ACKsReceived, res.Sec.ACKsSent)
	}
	if res.Sec.ACKsSent-res.Sec.ACKsReceived > 64 {
		t.Errorf("acks in flight at termination=%d; too many to be shutdown artifacts",
			res.Sec.ACKsSent-res.Sec.ACKsReceived)
	}
	// Every data block consumes exactly one send pad and one recv pad.
	if res.OTP.Uses(otp.Send) != res.Sec.DataSent {
		t.Errorf("send pad uses=%d, data sent=%d", res.OTP.Uses(otp.Send), res.Sec.DataSent)
	}
	if res.OTP.Uses(otp.Recv) != res.Sec.DataReceived {
		t.Errorf("recv pad uses=%d, data received=%d", res.OTP.Uses(otp.Recv), res.Sec.DataReceived)
	}
	// With batching, far fewer ACKs than data blocks.
	if res.Sec.ACKsSent*4 > res.Sec.DataSent {
		t.Errorf("acks=%d vs data=%d; batching should amortize ACKs", res.Sec.ACKsSent, res.Sec.DataSent)
	}
}

func TestSixteenGPUSystemRuns(t *testing.T) {
	cfg := config.Default(16)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	res := run(t, cfg, allTraces(16, 150, 10, 4), RunOptions{})
	if res.Ops != 16*150 {
		t.Errorf("ops=%d", res.Ops)
	}
	if len(res.OTPPerNode) != 17 {
		t.Errorf("per-node stats=%d, want 17", len(res.OTPPerNode))
	}
}

func TestCUShardedFrontEnd(t *testing.T) {
	cfg := config.Default(4)
	cfg.Secure = true
	cfg.Scheme = config.OTPDynamic
	cfg.Batching = true
	cfg.CUsPerGPU = 16
	res := run(t, cfg, allTraces(4, 800, 5, 4), RunOptions{})
	if res.Ops != 4*800 {
		t.Errorf("ops=%d, want %d; CU sharding lost operations", res.Ops, 4*800)
	}
	if res.Cycles == 0 {
		t.Error("zero execution time")
	}
	// Determinism holds in CU mode too.
	res2 := run(t, cfg, allTraces(4, 800, 5, 4), RunOptions{})
	if res2.Cycles != res.Cycles {
		t.Errorf("CU mode nondeterministic: %d vs %d", res.Cycles, res2.Cycles)
	}
}

// TestCUModeWithTLBAndMigration runs the TLB-deferred issue path under
// both front-ends: CU-sharded (8 CUs, the wavefront slot held via OnIssue)
// and the flat per-GPU window (0 CUs, the slot taken in node.issue).
func TestCUModeWithTLBAndMigration(t *testing.T) {
	for _, cus := range []int{8, 0} {
		t.Run(fmt.Sprintf("cus=%d", cus), func(t *testing.T) {
			cfg := config.Default(2)
			cfg.CUsPerGPU = cus
			cfg.ModelTLB = true
			cfg.MigrationThreshold = 16
			trace := make([]workload.Op, 300)
			for i := range trace {
				trace[i] = workload.Op{Gap: 20, Kind: workload.Read, Home: 2, Page: uint32(i % 3), Block: uint8(i % 64)}
			}
			idle := []workload.Op{{Gap: 1, Kind: workload.Read, Home: 1, Page: 0, Block: 0}}
			res := run(t, cfg, [][]workload.Op{trace, idle}, RunOptions{})
			if res.Ops != 301 {
				t.Errorf("ops=%d", res.Ops)
			}
			if res.Migrations == 0 {
				t.Error("no migration under heavy reuse")
			}
		})
	}
}
