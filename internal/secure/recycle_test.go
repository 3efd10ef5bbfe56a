package secure

import (
	"testing"

	"secmgpu/internal/core"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
)

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released endpoint did not panic", name)
		}
	}()
	fn()
}

// TestReleasedEndpointPanics checks that a released endpoint fails loudly
// instead of driving units another endpoint now owns.
func TestReleasedEndpointPanics(t *testing.T) {
	p := newPair(t, recoveryConfig())
	p.a.SendData(2, interconnect.KindDataResp, 1, 64, payload(1), false)
	p.a.Release()
	p.a.Release() // a second release is a no-op
	mustPanic(t, "SendData", func() {
		p.a.SendData(2, interconnect.KindDataResp, 2, 128, payload(2), false)
	})
	mustPanic(t, "SendControl", func() {
		p.a.SendControl(2, interconnect.KindReadReq, 3, 192, ReadReqBytes)
	})
	mustPanic(t, "Deliver", func() {
		msg := p.fabric.AcquireMessage()
		msg.Kind, msg.Src, msg.Dst = interconnect.KindReadReq, 2, 1
		p.a.Deliver(0, msg)
	})
	if p.a.OpenUnits() != 0 {
		t.Errorf("released endpoint still reports %d open units", p.a.OpenUnits())
	}
}

// TestReleasedUnitsRespectCaps fills an endpoint with more units and more
// blocks capacity than one Storage may keep — live units toward the CPU,
// units parked by a resync toward GPU 2, page-sized migration units and
// already-freed units — and with more free deferreds than the Storage may
// keep, and checks what it releases: at most maxParkedUnits units, at
// most maxParkedBlocks blocks capacity in all, none above the batch size,
// every unit emptied and zeroed with no plaintext kept, at most
// maxParkedDeferreds deferreds, all zeroed, every units table empty and
// naming no unit, at most maxParkedUnitSlots slots in all, the per-peer
// timers and resync state cleared, and nothing left referenced by the
// endpoint.
func TestReleasedUnitsRespectCaps(t *testing.T) {
	cfg := recoveryConfig()
	cfg.BatchSize = 8
	p := newPair(t, cfg)
	e := p.a
	for i := 0; i < 100*cfg.BatchSize; i++ {
		e.SendData(0, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
	}
	for i := 0; i < 3*PageBlocks; i++ {
		e.SendData(0, interconnect.KindMigrChunk, uint64(i), uint64(i*64), payload(byte(i)), false)
	}
	for i := 0; i < 60*cfg.BatchSize; i++ {
		e.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
	}
	// Resolve a few CPU-bound units onto the free list, then park every
	// unit toward GPU 2 behind a resync.
	for id := uint64(0); id < 4; id++ {
		e.resolveUnit(unitKey{peer: e.PeerIndex(0), class: 0, id: id})
	}
	gpu2 := e.PeerIndex(2)
	e.beginResync(gpu2, false)
	// Free more deferreds than the cap, each having carried a send, a
	// closed batch and a delivery.
	taken := make([]*deferred, 2*maxParkedDeferreds)
	for i := range taken {
		d := e.newDeferred()
		d.send, d.deliver = &interconnect.Message{}, &interconnect.Message{}
		d.closed, d.hasClosed, d.dst, d.class = core.ClosedBatch{Len: 1}, true, 2, 1
		taken[i] = d
	}
	for _, d := range taken {
		e.freeDeferred(d)
	}

	units, capacity := 0, 0
	count := func(u *txUnit) {
		units++
		capacity += cap(u.blocks)
	}
	for class := range e.st.units {
		for peer := range e.st.units[class] {
			e.st.units[class][peer].Range(func(_ uint64, u **txUnit) { count(*u) })
		}
	}
	live := units
	for _, u := range e.st.recov[gpu2].parked {
		count(u)
	}
	for u := e.unitFree; u != nil; u = u.next {
		count(u)
	}
	if len(e.st.recov[gpu2].parked) == 0 || e.unitFree == nil || live == 0 {
		t.Fatalf("setup: %d live, %d parked, free list empty=%t; want all three non-empty",
			live, len(e.st.recov[gpu2].parked), e.unitFree == nil)
	}
	// The CPU's batch table grows past the slot budget, as when the
	// oldest batches stay unACKed while retransmits allocate newer IDs.
	cpu := e.PeerIndex(0)
	big := &e.st.units[0-convClass][cpu]
	for big.Slots() <= maxParkedUnitSlots {
		slot, _ := big.Put(e.st.batchers[0][cpu].AllocID())
		*slot = e.newUnit()
	}
	if units <= maxParkedUnits || capacity <= maxParkedBlocks {
		t.Fatalf("setup: %d units with %d blocks capacity do not exceed the caps (%d, %d)",
			units, capacity, maxParkedUnits, maxParkedBlocks)
	}

	st := e.st
	e.Release()
	if e.unitFree != nil || e.defFree != nil || e.st != nil {
		t.Error("released endpoint still references a free list or its storage")
	}
	for i := range st.recov[:cap(st.recov)] {
		if rs := st.recov[i]; rs.parked != nil || rs.timer != (sim.Timer{}) || rs.active {
			t.Errorf("peer %d resync state kept across the release: %+v", i, rs)
		}
	}
	for class := range st.batchTimers {
		for i, bt := range st.batchTimers[class] {
			if bt != (batchTimer{}) {
				t.Errorf("class %d peer %d flush timer kept across the release", class, i)
			}
		}
	}
	keptTables, keptSlots := 0, 0
	for class := range st.units {
		tabs := st.units[class][:cap(st.units[class])]
		for peer := range tabs {
			tab := &tabs[peer]
			if tab.Slots() > 0 {
				keptTables++
			}
			keptSlots += tab.Slots()
			if tab.Len() != 0 {
				t.Errorf("class %d peer %d: units table kept with %d entries, want it empty",
					class+convClass, peer, tab.Len())
			}
			for id := uint64(0); id < uint64(tab.Slots()); id++ {
				if slot, _ := tab.Put(id); *slot != nil {
					t.Fatalf("class %d peer %d: a kept units table still names a unit", class+convClass, peer)
				}
			}
		}
	}
	if keptTables == 0 || keptSlots > maxParkedUnitSlots {
		t.Errorf("storage keeps %d units tables of %d slots in all, want 1..%d slots", keptTables, keptSlots, maxParkedUnitSlots)
	}
	kept, keptCap := 0, 0
	for u := st.free; u != nil; u = u.next {
		kept++
		if c := cap(u.blocks); c > 1 {
			keptCap += c
		}
		if c := cap(u.blocks); c > cfg.BatchSize {
			t.Errorf("parked unit keeps %d blocks capacity, above the batch size %d", c, cfg.BatchSize)
		}
		if len(u.blocks) != 0 || u.payloads != nil {
			t.Errorf("parked unit keeps %d blocks and %d plaintexts", len(u.blocks), cap(u.payloads))
		}
		if u.dst != 0 || u.peer != 0 || u.class != 0 || u.id != 0 || u.attempt != 0 || u.timer != (sim.Timer{}) {
			t.Fatalf("parked unit is not zeroed: %+v", *u)
		}
	}
	if kept == 0 || kept > maxParkedUnits {
		t.Errorf("storage keeps %d units, want 1..%d", kept, maxParkedUnits)
	}
	if keptCap > maxParkedBlocks {
		t.Errorf("storage keeps %d blocks capacity, cap %d", keptCap, maxParkedBlocks)
	}
	keptDeferreds := 0
	for d := st.deferreds; d != nil; d = d.next {
		keptDeferreds++
		if *d != (deferred{next: d.next}) {
			t.Fatalf("parked deferred is not zeroed: %+v", *d)
		}
	}
	if keptDeferreds == 0 || keptDeferreds > maxParkedDeferreds {
		t.Errorf("storage keeps %d deferreds, want 1..%d", keptDeferreds, maxParkedDeferreds)
	}
}
