package secmgpu

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"secmgpu/internal/experiments"
	"secmgpu/internal/sweep"
)

func smallConfig(gpus int) Config {
	cfg := DefaultConfig(gpus)
	cfg.Scale = 0.02
	return cfg
}

func TestRunUnsecureAndSecure(t *testing.T) {
	spec, err := WorkloadByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(4)
	base, err := RunContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatalf("unsecure run: %v", err)
	}
	if base.Cycles == 0 || base.Ops == 0 {
		t.Fatal("empty result")
	}

	cfg.Secure = true
	cfg.Scheme = SchemeDynamic
	cfg.Batching = true
	sec, err := RunContext(context.Background(), cfg, spec, RunOptions{Functional: true})
	if err != nil {
		t.Fatalf("secure run: %v", err)
	}
	if sec.Ops != base.Ops {
		t.Errorf("ops differ: %d vs %d", sec.Ops, base.Ops)
	}
	if sec.Sec.DecryptFailed != 0 || sec.Sec.BatchesFailed != 0 {
		t.Errorf("functional failures: decrypt=%d batches=%d",
			sec.Sec.DecryptFailed, sec.Sec.BatchesFailed)
	}
	if sec.OTP.Uses(Send) == 0 || sec.OTP.Uses(Recv) == 0 {
		t.Error("no OTP activity recorded")
	}
}

func TestRunValidatesConfig(t *testing.T) {
	spec, _ := WorkloadByAbbr("mm")
	cfg := smallConfig(4)
	cfg.NumGPUs = 0
	if _, err := RunContext(context.Background(), cfg, spec, RunOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSlowdownOrdering(t *testing.T) {
	spec, err := WorkloadByAbbr("syr2k")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(4)
	cfg.Scale = 0.15
	cfg.Secure = true

	cfg.Scheme = SchemePrivate
	private, err := SlowdownContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemeShared
	shared, err := SlowdownContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheme = SchemeDynamic
	cfg.Batching = true
	ours, err := SlowdownContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if private < 1.0 {
		t.Errorf("Private slowdown %.3f < 1; securing cannot speed up syr2k", private)
	}
	if shared <= private {
		t.Errorf("Shared %.3f <= Private %.3f; paper ordering violated", shared, private)
	}
	if ours >= private {
		t.Errorf("Ours %.3f >= Private %.3f; the contributions should win", ours, private)
	}
}

func TestWorkloadsRegistry(t *testing.T) {
	if got := len(Workloads()); got != 17 {
		t.Errorf("workloads=%d, want 17", got)
	}
	if _, err := WorkloadByAbbr("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	names := Experiments()
	if len(names) < 20 {
		t.Fatalf("only %d experiments registered", len(names))
	}
	p := DefaultExperimentParams(0.02)
	p.Workloads = []string{"mm"}

	// Analytic tables run instantly.
	tab, err := RunExperimentContext(context.Background(), "table1", p)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Value("4", "1x KB"); !ok || v < 2.7 || v > 2.8 {
		t.Errorf("Table I 4-GPU 1x storage=%v, want ~2.75 KB", v)
	}

	// One simulated figure end to end.
	fig, err := RunExperimentContext(context.Background(), "fig21", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 1 || fig.Rows[0].Label != "mm" {
		t.Fatalf("fig21 rows=%v", fig.Rows)
	}
	if !strings.Contains(fig.String(), "Figure 21") {
		t.Error("table render missing ID")
	}
	if _, err := RunExperimentContext(context.Background(), "nope", p); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestExperimentNamesAgreeAcrossViews pins the single-source-of-truth
// property: the public name list, the public runner lookup, and the
// secbench registry (all views of experiments.Registry) expose exactly the
// same experiments.
func TestExperimentNamesAgreeAcrossViews(t *testing.T) {
	lib := Experiments()
	if !sort.StringsAreSorted(lib) {
		t.Errorf("Experiments() not sorted: %v", lib)
	}
	reg := experiments.Registry()
	if len(lib) != len(reg) {
		t.Fatalf("Experiments() has %d names, registry has %d", len(lib), len(reg))
	}
	p := DefaultExperimentParams(0.02)
	p.Workloads = []string{"mm"}
	// A pre-cancelled context exercises every name's lookup without
	// paying for the simulations: resolution failure would report
	// "unknown experiment" rather than the context error.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range lib {
		if _, ok := reg[name]; !ok {
			t.Errorf("experiment %q advertised but not in registry", name)
		}
		if _, err := RunExperimentContext(cancelled, name, p); err != nil && strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("RunExperimentContext does not resolve advertised experiment %q", name)
		}
	}
}

func TestRunExperimentContextCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	p := DefaultExperimentParams(0.02)
	p.Workloads = []string{"mm"}
	p.Engine = sweep.New(1)
	if _, err := RunExperimentContext(cancelled, "fig21", p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if st := p.Engine.Stats(); st.Simulated != 0 {
		t.Errorf("cancelled experiment simulated %d cells", st.Simulated)
	}
}

func TestSentinelErrors(t *testing.T) {
	if _, err := RunExperimentContext(context.Background(), "fig99", ExperimentParams{}); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown experiment: err = %v, want errors.Is ErrUnknownExperiment", err)
	}
	if _, err := WorkloadByAbbr("nope"); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown workload: err = %v, want errors.Is ErrUnknownWorkload", err)
	}
	// The sentinels are distinct.
	if errors.Is(ErrUnknownExperiment, ErrUnknownWorkload) || errors.Is(ErrUnknownWorkload, ErrParamsMismatch) {
		t.Error("sentinel errors are not distinct")
	}
}

func TestRunContextCancellation(t *testing.T) {
	spec, err := WorkloadByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(cancelled, smallConfig(4), spec, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if _, err := SlowdownContext(cancelled, smallConfig(4), spec, RunOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SlowdownContext err = %v, want context.Canceled", err)
	}
}

func TestRunContextMatchesRun(t *testing.T) {
	spec, err := WorkloadByAbbr("atax")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(2)
	cfg.Secure = true
	plain, err := RunContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RunContext(context.Background(), cfg, spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != ctxed.Cycles || plain.Ops != ctxed.Ops {
		t.Fatalf("Run and RunContext disagree: cycles %d vs %d", plain.Cycles, ctxed.Cycles)
	}
}

// TestServeFacade drives the campaign service through the public surface:
// Serve on a caller-supplied listener and CoordinatorHandler mounted on
// an httptest server, each on its own store directory, each answering a
// table1 campaign submitted through NewClient with the table a direct
// run renders.
func TestServeFacade(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	want := experiments.Table1().String()
	runTable1 := func(t *testing.T, url, storeDir string) {
		t.Helper()
		client := NewClient(url)
		st, err := client.Submit(ctx, CampaignSpec{Experiments: []string{"table1"}})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = client.Wait(ctx, st.ID, 10*time.Millisecond, nil); err != nil || st.State != "done" {
			t.Fatalf("campaign ended %s (%v)", st.State, err)
		}
		tables, err := client.Tables(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 1 || tables[0].Text != want {
			t.Fatalf("tables = %+v, want table1 as a direct run renders it", tables)
		}
		// The coordinator ran on the store at StoreDir: its control
		// journal is there.
		if _, err := os.Stat(filepath.Join(storeDir, "coordinator.jsonl")); err != nil {
			t.Fatalf("no control journal in StoreDir: %v", err)
		}
	}

	t.Run("Serve", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		sctx, stop := context.WithCancel(ctx)
		served := make(chan error, 1)
		go func() {
			served <- Serve(sctx, "", ServeOptions{StoreDir: dir, CoordinatorOptions: CoordinatorOptions{Listener: ln}})
		}()
		runTable1(t, "http://"+ln.Addr().String(), dir)
		stop()
		if err := <-served; !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	})

	t.Run("CoordinatorHandler", func(t *testing.T) {
		dir := t.TempDir()
		h, closeCoord, err := CoordinatorHandler(ServeOptions{StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer closeCoord()
		srv := httptest.NewServer(h)
		defer srv.Close()
		runTable1(t, srv.URL, dir)
	})
}
