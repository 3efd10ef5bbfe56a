package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"secmgpu/internal/config"
	"secmgpu/internal/crypto"
	"secmgpu/internal/experiments"
	"secmgpu/internal/machine"
	"secmgpu/internal/store"
	"secmgpu/internal/sweep"
	"secmgpu/internal/workload"
)

// Microbenchmarks time the calls a run makes only inside machine or a
// worker, where the benchmark cannot wrap them: pad generation, MACs and
// batch digests in functional runs, and store Put/Get in workers. Each
// reports the median of microReps repetitions.
const (
	microReps    = 7
	microCryptoN = 20000 // calls per crypto repetition
	microStoreN  = 20    // calls per store repetition
)

// sink keeps the compiler from discarding measured results.
var sink byte

// microbench runs every microbenchmark and records its per-call cost.
func microbench(r *run) error {
	gen, err := crypto.NewPadGenerator([]byte("perfbench-key-16"))
	if err != nil {
		return err
	}
	var ct [crypto.BlockBytes]byte
	// A batch digest folds one MAC per block of a full batch.
	batch := make([]byte, config.Default(4).BatchSize*crypto.MACBytes)
	pad := gen.Generate(1, 1, 2)

	r.extra["crypto.pad_ns"] = timeCalls(r, "crypto.Generate", microCryptoN, func(i int) {
		p := gen.Generate(uint64(i), 1, 2)
		sink ^= p.Enc[0]
	})
	r.extra["crypto.mac_ns"] = timeCalls(r, "crypto.MAC", microCryptoN, func(i int) {
		ct[0] = byte(i)
		m := gen.MAC(ct[:], &pad)
		sink ^= m[0]
	})
	blocks := float64(len(batch) / 16)
	r.extra["crypto.digest_ns_per_block"] = timeCalls(r, "crypto.Digest", microCryptoN, func(i int) {
		batch[0] = byte(i)
		d := gen.Digest(batch)
		sink ^= d[0]
	}) / blocks

	res, err := representativeResult()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.tmp, "micro-store-")
	if err != nil {
		return err
	}
	defer removeAndSync(dir)
	st, err := store.Open(dir, store.Options{SimDigest: store.BinaryDigest()})
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	var putErr error
	r.extra["store.put_ms"] = timeCalls(r, "store.Put", microStoreN, func(i int) {
		if err := st.Put(key(i), "micro", res); err != nil && putErr == nil {
			putErr = err
		}
	}) / 1e6
	if putErr != nil {
		return putErr
	}
	var misses int
	r.extra["store.get_ms"] = timeCalls(r, "store.Get", microStoreN, func(i int) {
		if _, ok := st.Get(key(i % microStoreN)); !ok {
			misses++
		}
	}) / 1e6
	r.check("store microbenchmark hits", misses == 0, "%d of %d Gets missed", misses, microReps*microStoreN)
	return nil
}

// timeCalls runs fn n times per repetition and returns the median
// nanoseconds per call, recording one span per repetition.
func timeCalls(r *run, name string, n int, fn func(i int)) float64 {
	per := make([]float64, 0, microReps)
	for rep := 0; rep < microReps; rep++ {
		span := r.tr.begin("micro."+name, 0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(rep*n + i)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
		r.tr.end(span)
	}
	return median(per)
}

// representativeResult simulates the kind of cell the campaign workload's
// workers store: a 4-GPU mm cell under Ours at the campaign scale.
func representativeResult() (*machine.Result, error) {
	spec, err := workload.ByAbbr("mm")
	if err != nil {
		return nil, err
	}
	cfg := config.Default(4)
	cfg.Scale = campaignScale
	experiments.Ours4x.Mutate(&cfg)
	return sweep.SimulateContext(context.Background(), sweep.Cell{Spec: spec, Cfg: cfg})
}
