package secmgpu

// Golden determinism digests. The simulation must be bit-reproducible: for
// a fixed (experiment, scale, seed) the rendered table is byte-identical
// across runs, machines, and — critically — kernel rewrites. The digests
// below were captured from the pre-rewrite engine (container/heap queue,
// unpooled messages), so they prove the specialized event queue, the
// cancellable-timer migration, and message pooling preserved the event
// order exactly.
//
// If a change legitimately alters simulation behaviour (a model change, not
// a kernel change), regenerate with:
//
//	go test -run TestGoldenFig21Digest -v -update-golden

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"testing"

	"secmgpu/internal/sweep"
)

var updateGolden = flag.Bool("update-golden", false, "print current fig21 digests instead of comparing")

// goldenFig21 maps workload scale to the sha256 of fig21's CSV rendering,
// captured before the zero-alloc kernel rewrite.
var goldenFig21 = map[float64]string{
	0.02: "9a248465c5c23190fadfb23a0813aa0877d2eb63558ac98dfb17dbf111a23bfb",
	0.10: "5e52704c792b0e7b8bd65c5a716c8af9a6f270625e712f5f97d6de6728ee30fd",
}

func fig21Digest(t *testing.T, scale float64) string {
	t.Helper()
	p := ExperimentParams{GPUs: 4, Scale: scale, Seed: 1, Engine: sweep.New(0)}
	table, err := RunExperimentContext(context.Background(), "fig21", p)
	if err != nil {
		t.Fatalf("fig21 at scale %v: %v", scale, err)
	}
	sum := sha256.Sum256([]byte(table.CSV()))
	return hex.EncodeToString(sum[:])
}

// TestGoldenFig21Digest proves the experiment tables are byte-identical to
// the pre-rewrite kernel's output. The bench-scale (0.10) digest is the
// acceptance invariant; it is skipped under -short where the cheap 0.02
// digest still guards the event order.
func TestGoldenFig21Digest(t *testing.T) {
	scales := []float64{0.02}
	if !testing.Short() {
		scales = append(scales, 0.10)
	}
	for _, scale := range scales {
		got := fig21Digest(t, scale)
		if *updateGolden {
			t.Logf("scale=%v sha256=%s", scale, got)
			continue
		}
		if want := goldenFig21[scale]; got != want {
			t.Errorf("fig21 digest at scale %v = %s, want %s\n"+
				"the simulation's event order changed: either a kernel change broke determinism "+
				"(a bug) or a model change legitimately altered results (update the digest)",
				scale, got, want)
		}
	}
}
