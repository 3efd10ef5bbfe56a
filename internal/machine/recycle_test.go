package machine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
	"secmgpu/internal/workload"
)

// recycleCell is one cell of the storage-recycling tests.
type recycleCell struct {
	cfg    config.Config
	traces [][]workload.Op
}

// digest runs the cell on a fresh system and returns its Result as JSON.
func (c recycleCell) digest() (string, error) {
	sys, err := New(c.cfg, c.traces, RunOptions{})
	if err != nil {
		return "", err
	}
	res, err := sys.Run()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// recoveryCell is a 4-GPU Ours cell recovering on a lossy fabric: its
// retransmit and batch timers are still queued when the run stops.
func recoveryCell(t *testing.T) recycleCell {
	cfg := faultyConfig(4, 11)
	cfg.Scheme = config.OTPDynamic
	cfg.OTPMultiplier = 4
	cfg.Batching = true
	return recycleCell{cfg, allTraces(4, 300, 8, 3)}
}

// liveStateCtx cancels a run at the first engine poll that finds
// retransmission units open, units parked behind a resync, and requests
// and page migrations pending, so the system is released with all of
// them live. It gives up (and reports nothing reached) after maxPolls
// polls.
type liveStateCtx struct {
	context.Context
	sys                *System
	polls              int
	reached            bool
	units, parks       int
	pending, migrating int
}

const maxPolls = 400

// parkedRE matches a peer with parked units in an endpoint's Diag.
var parkedRE = regexp.MustCompile(`"parked":[1-9]`)

func (c *liveStateCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (c *liveStateCtx) Err() error {
	if c.reached || c.polls >= maxPolls {
		return context.Canceled
	}
	c.polls++
	c.units, c.parks, c.pending, c.migrating = 0, 0, 0, 0
	for _, n := range c.sys.nodes {
		c.units += n.ep.OpenUnits()
		c.parks += len(parkedRE.FindAllString(n.ep.Diag(), -1))
		c.pending += n.pending.Len()
		c.migrating += n.migrating.n
	}
	if c.units > 0 && c.parks > 0 && c.pending > 0 && c.migrating > 0 {
		c.reached = true
		return context.Canceled
	}
	return nil
}

// cancelledRecovery runs a 4-GPU recovering cell whose GPU1-GPU2 link goes
// dark for good, and cancels it once units are open, units are parked by
// the resync the outage forces, and requests and migrations are pending.
func cancelledRecovery() error {
	cfg := outageConfig(4)
	cfg.Scheme = config.OTPPrivate
	cfg.Batching = false
	cfg.MigrationThreshold = 8
	sys, err := New(cfg, allTraces(4, 2000, 4, 3), RunOptions{})
	if err != nil {
		return err
	}
	sys.Fabric().ForceLinkOutage(1, 2, 3_000, sim.MaxCycle)
	ctx := &liveStateCtx{Context: context.Background(), sys: sys}
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled recovery cell: err = %v, want context.Canceled", err)
	}
	if !ctx.reached {
		return fmt.Errorf("cancelled recovery cell: after %d polls %d units open, %d peers parked, %d requests and %d migrations pending; want all live",
			ctx.polls, ctx.units, ctx.parks, ctx.pending, ctx.migrating)
	}
	return nil
}

// inFlightCell runs an 8-GPU Ours cell cancelled at the engine's first
// mid-run poll and checks that it was released with pooled messages still
// in flight or held.
func inFlightCell(t *testing.T) func() error {
	cfg, traces := oursCell(t, 8, 0.05)
	return func() error {
		sys, err := New(cfg, traces, RunOptions{})
		if err != nil {
			return err
		}
		ctx := &tripCtx{Context: context.Background(), trip: 2}
		if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("in-flight cell: err = %v, want context.Canceled", err)
		}
		if sys.Fabric().Outstanding() == 0 {
			return fmt.Errorf("in-flight cell: released with no message out")
		}
		return nil
	}
}

// stallStop is a node's fabric deliverer that wraps its endpoint and
// stops the engine as soon as the endpoint retains a delivery to hand to
// the node after an OTP stall, so the system is released with that
// delivery still pending.
type stallStop struct {
	ep  interconnect.Deliverer
	sys *System
	hit *bool
}

func (s stallStop) Deliver(now sim.Cycle, msg *interconnect.Message) {
	s.ep.Deliver(now, msg)
	if msg.Retained() && !*s.hit {
		*s.hit = true
		s.sys.engine.Stop()
	}
}

// stalledDeliveryCell runs a 4-GPU cell whose receivers run short of
// pads, and ends it at the first delivery an endpoint retains for an
// OTP-stalled hand-off.
func stalledDeliveryCell(t *testing.T) func() error {
	cfg, traces := oursCell(t, 4, 0.02)
	cfg.Scheme = config.OTPShared
	cfg.OTPMultiplier = 1
	return func() error {
		sys, err := New(cfg, traces, RunOptions{})
		if err != nil {
			return err
		}
		hit := false
		for _, n := range sys.nodes {
			sys.Fabric().Register(n.id, stallStop{n.ep, sys, &hit})
		}
		if _, err := sys.Run(); err == nil || !hit {
			return fmt.Errorf("stalled-delivery cell: err = %v, retained = %t; want a run stopped at a retained delivery", err, hit)
		}
		if sys.Fabric().Outstanding() == 0 {
			return fmt.Errorf("stalled-delivery cell: released with no message out")
		}
		return nil
	}
}

// duplicatingCell runs an 8-GPU cell to completion on a fabric that drops,
// corrupts and duplicates secure traffic far more often than the faulty
// fresh cell does, so unpooled duplicates and damaged ciphertext pass
// through the fabric's free path.
func duplicatingCell() func() error {
	cfg := faultyConfig(8, 41)
	cfg.Scheme = config.OTPPrivate
	cfg.Faults.DuplicateRate = 0.05
	traces := allTraces(8, 200, 6, 2)
	return func() error {
		sys, err := New(cfg, traces, RunOptions{Functional: true})
		if err != nil {
			return err
		}
		res, err := sys.Run()
		if err != nil {
			return err
		}
		if res.Traffic.FaultDuplicated == 0 || res.Traffic.FaultDropped == 0 {
			return fmt.Errorf("duplicating cell: %d duplicated, %d dropped; want both", res.Traffic.FaultDuplicated, res.Traffic.FaultDropped)
		}
		return nil
	}
}

// freshCells are compared with a run in a fresh process, where the cell
// store and the fabric's seed store are empty: an 8-GPU conventional cell
// that migrates pages, whose configuration no other recycling test runs,
// a 4-GPU cell on a lossy fabric, and a 4-GPU cell under Ours on a fabric
// with the degradation experiment's "heavy" outage profile and its shrunk
// recovery timers.
func freshCells() map[string]recycleCell {
	fresh := config.Default(8)
	fresh.Secure = true
	fresh.Scheme = config.OTPCached
	fresh.MigrationThreshold = 4
	faulty := faultyConfig(4, 29)
	faulty.Scheme = config.OTPDynamic
	faulty.Batching = true
	return map[string]recycleCell{
		"fresh-config": {fresh, allTraces(8, 600, 6, 3)},
		"faulty":       {faulty, allTraces(4, 300, 8, 3)},
		"outages":      {heavyOutages(oursConfig(4), 31), allTraces(4, 300, 8, 3)},
	}
}

// TestFreshCellDigests logs each fresh cell's Result. Run alone for one
// cell in a new process of this test binary, it gives
// TestRecycledStorageIsInvisible that cell's result on fresh storage.
func TestFreshCellDigests(t *testing.T) {
	for name, c := range freshCells() {
		t.Run(name, func(t *testing.T) {
			d, err := c.digest()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("digest %s %s", name, d)
		})
	}
}

// freshProcessDigest runs cell name alone in a new process of this test
// binary and returns its Result.
func freshProcessDigest(t *testing.T, name string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFreshCellDigests$/^"+name+"$", "-test.count=1", "-test.v")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("fresh process for %s: %v\n%s", name, err, out)
	}
	prefix := "digest " + name + " "
	for _, line := range strings.Split(string(out), "\n") {
		if i := strings.Index(line, prefix); i >= 0 {
			return line[i+len(prefix):]
		}
	}
	t.Fatalf("fresh process for %s logged no digest:\n%s", name, out)
	return ""
}

// TestRecycledStorageIsInvisible checks that a cell's result does not
// depend on what ran before it on recycled engine slabs, cache tag
// stores, pending tables, node events, page pools, message free lists,
// retransmission units, deferred payloads and fault and outage
// generators, nor on the seeded generator states the fabric caches for
// the process. A small cell B runs, then a disturbing cell that leaves
// its storage in a different state, then B again; both B results must be
// equal field for field. Last, a cell of a configuration not run before,
// a cell on a lossy fabric and a cell on a fabric with outages must each
// match a run in a fresh process, after each of four cells that end with
// storage still in use: a recovering cell
// cancelled with units open, units parked, and requests and migrations
// pending; a cell cancelled with messages in flight; a cell stopped with
// a retained OTP-stalled delivery pending; and a cell on a fabric that
// duplicates and drops messages.
func TestRecycledStorageIsInvisible(t *testing.T) {
	cfg4, tr4 := oursCell(t, 4, 0.01)
	b := recycleCell{cfg4, tr4}
	cfg16, tr16 := oursCell(t, 16, 0.01)
	big := recycleCell{cfg16, tr16}
	recovery := recoveryCell(t)

	cancelled := func() error {
		// Cancelled at the engine's first mid-run poll, so the released
		// engine still holds live events and armed timers.
		cfg, traces := oursCell(t, 8, 0.05)
		sys, err := New(cfg, traces, RunOptions{})
		if err != nil {
			return err
		}
		ctx := &tripCtx{Context: context.Background(), trip: 2}
		if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("cancelled cell: err = %v, want context.Canceled", err)
		}
		return nil
	}
	cases := []struct {
		name    string
		cell    recycleCell
		disturb func() error
	}{
		{"big-16GPU", b, func() error { _, err := big.digest(); return err }},
		{"recovery-with-queued-timers", b, func() error { _, err := recovery.digest(); return err }},
		{"recovery-after-big", recovery, func() error { _, err := big.digest(); return err }},
		{"cancelled-mid-run", b, cancelled},
		{"recovery-cancelled-with-live-units", recovery, cancelledRecovery},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first, err := tc.cell.digest()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.disturb(); err != nil {
				t.Fatal(err)
			}
			second, err := tc.cell.digest()
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("result changed after a %s cell\nfirst:  %.300s\nsecond: %.300s", tc.name, first, second)
			}
		})
	}
	t.Run("fresh-process", func(t *testing.T) {
		fresh := map[string]string{}
		for name := range freshCells() {
			fresh[name] = freshProcessDigest(t, name)
		}
		ends := []struct {
			name string
			cell func() error
		}{
			{"recovery-cancelled-with-live-units", cancelledRecovery},
			{"messages-in-flight", inFlightCell(t)},
			{"stalled-delivery-pending", stalledDeliveryCell(t)},
			{"lossy-duplicating", duplicatingCell()},
		}
		for _, end := range ends {
			t.Run("after-"+end.name, func(t *testing.T) {
				if err := end.cell(); err != nil {
					t.Fatal(err)
				}
				for name, c := range freshCells() {
					got, err := c.digest()
					if err != nil {
						t.Fatal(err)
					}
					if got != fresh[name] {
						t.Errorf("%s cell differs from its fresh-process run\nhere:  %.300s\nfresh: %.300s", name, got, fresh[name])
					}
				}
			})
		}
	})
}

// TestRecycledStorageParallel runs several cells at once on goroutines,
// as sweep workers do, so engines and caches hand storage to each other
// across goroutines. Every result must equal the cell's solo result.
func TestRecycledStorageParallel(t *testing.T) {
	var cells []recycleCell
	for _, gpus := range []int{4, 8, 16} {
		cfg, traces := oursCell(t, gpus, 0.01)
		cells = append(cells, recycleCell{cfg, traces})
	}
	cells = append(cells, recoveryCell(t))
	solo := make([]string, len(cells))
	for i, c := range cells {
		d, err := c.digest()
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = d
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*len(cells))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cells {
					i := (k + w) % len(cells)
					d, err := cells[i].digest()
					if err != nil {
						errs <- err
					} else if d != solo[i] {
						errs <- fmt.Errorf("worker %d round %d: cell %d result differs from its solo run", w, r, i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pendingCtx cancels a run at the first engine poll that finds requests
// pending, so the system is released with its pending tables in use.
type pendingCtx struct {
	context.Context
	sys     *System
	reached bool
}

func (c *pendingCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (c *pendingCtx) Err() error {
	for _, n := range c.sys.nodes {
		if n.pending.Len() > 0 {
			c.reached = true
			return context.Canceled
		}
	}
	return nil
}

// TestReleasedNodesHandOverEvents checks that every node, the CPU
// included, uses the pending table of its cell store entry and hands its
// event free list back at release with the table emptied, keeping
// neither itself. The cell is cancelled with requests pending, so the
// tables are in use when it is released.
func TestReleasedNodesHandOverEvents(t *testing.T) {
	cfg, traces := oursCell(t, 8, 0.05)
	sys, err := New(cfg, traces, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := sys.store
	for i, n := range sys.nodes {
		if n.pending != &st.nodes[i].pending {
			t.Fatalf("%v does not use its cell store part's pending table", n.id)
		}
	}
	ctx := &pendingCtx{Context: context.Background(), sys: sys}
	if _, err := sys.RunContext(ctx); !errors.Is(err, context.Canceled) || !ctx.reached {
		t.Fatalf("err = %v, pending reached = %t; want a run cancelled with requests pending", err, ctx.reached)
	}
	grown := 0
	for i, n := range sys.nodes {
		if n.evFree != nil || n.pending != nil {
			t.Errorf("released %v still holds its events or pending table", n.id)
		}
		rm := &st.nodes[i]
		events := 0
		for ev := rm.evFree; ev != nil; ev = ev.next {
			events++
		}
		if events == 0 || rm.pending.Len() != 0 {
			t.Errorf("%v handed back %d events and a pending table of %d entries; want events and an empty table",
				n.id, events, rm.pending.Len())
		}
		if rm.pending.Slots() > 0 {
			grown++
		}
	}
	if grown == 0 {
		t.Error("no pending table kept its slots across the release")
	}
}

// TestStaleHandlesPanic runs a cell, then a cell of a configuration built
// on the first one's cell store entry. Every handle the first System gave
// out (its engine, fabric, endpoints and caches) must still panic when
// driven, although the second cell now owns their storage, and the
// second cell's Result must equal its run in a fresh process.
func TestStaleHandlesPanic(t *testing.T) {
	name := "faulty"
	second := freshCells()[name]
	fresh := freshProcessDigest(t, name)
	cfg, traces := oursCell(t, 16, 0.01)
	first, err := New(cfg, traces, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := first.store
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	next, err := New(second.cfg, second.traces, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if next.store != st {
		t.Fatal("the second cell was not built on the store entry the first one parked")
	}
	h := sim.HandlerFunc(func(sim.Event) {})
	for what, use := range map[string]func(){
		"engine":   func() { first.engine.Schedule(first.engine.Now()+1, h, nil) },
		"fabric":   func() { first.Fabric().AcquireMessage() },
		"endpoint": func() { first.Endpoint(1).SendControl(2, interconnect.KindReadReq, 1, 0, 16) },
		"cache":    func() { first.nodes[1].memory.ServiceLatency(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("the released cell's %s did not panic", what)
				}
			}()
			use()
		}()
	}
	res, err := next.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != fresh {
		t.Errorf("%s cell on the stale handles' storage differs from its fresh-process run\nhere:  %.300s\nfresh: %.300s", name, b, fresh)
	}
}
