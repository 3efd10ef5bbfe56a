package secure

import (
	"testing"

	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
)

// TestMigrationChunksBatchPerPage verifies the page-granularity batching
// class: 64 migration chunks produce exactly one Batched_MsgMAC and one
// ACK (Section IV-C: "MsgMAC for each page and only a single ACK per
// page"), independent of the direct-access batch size.
func TestMigrationChunksBatchPerPage(t *testing.T) {
	p := newPair(t, secureConfig()) // direct-access batch size 4
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < PageBlocks; i++ {
			p.a.SendData(2, interconnect.KindMigrChunk, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.a.Stats().BatchMACsSent; got != 1 {
		t.Errorf("batch MACs=%d, want 1 per page", got)
	}
	if got := p.b.Stats().ACKsSent; got != 1 {
		t.Errorf("acks=%d, want 1 per page", got)
	}
	if got := p.b.Stats().BatchesVerified; got != 1 {
		t.Errorf("verified=%d, want 1", got)
	}
	if p.b.Stats().BatchesFailed != 0 {
		t.Errorf("failed=%d", p.b.Stats().BatchesFailed)
	}
}

// TestMigrationAndDirectStreamsDoNotMix checks that interleaved migration
// chunks and direct data blocks keep separate batch streams and both
// verify.
func TestMigrationAndDirectStreamsDoNotMix(t *testing.T) {
	p := newPair(t, secureConfig()) // direct batch size 4
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 8; i++ {
			p.a.SendData(2, interconnect.KindMigrChunk, uint64(i), uint64(i*64), payload(byte(i)), false)
			p.a.SendData(2, interconnect.KindDataResp, uint64(100+i), uint64(4096+i*64), payload(byte(i+8)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 direct blocks at n=4 -> 2 full batches; 8 migration chunks at
	// n=64 -> 1 timeout-flushed partial batch.
	if got := p.b.Stats().BatchesVerified; got != 3 {
		t.Errorf("verified=%d, want 3 (2 direct + 1 flushed migration)", got)
	}
	if p.b.Stats().BatchesFailed != 0 {
		t.Errorf("failed=%d; streams mixed", p.b.Stats().BatchesFailed)
	}
}

// TestFIFOInjectionPerPeer verifies that a later block whose pad was ready
// sooner cannot overtake earlier blocks of the same channel.
func TestFIFOInjectionPerPeer(t *testing.T) {
	p := newPair(t, secureConfig())
	var order []uint64
	p.cb.onData = func(msg *interconnect.Message) { order = append(order, msg.ReqID) }
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		// Burst larger than the pad allocation: early blocks stall,
		// later ones would be ready sooner without the FIFO guard.
		for i := 0; i < 12; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("delivered=%d", len(order))
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("delivery order=%v, want FIFO", order)
		}
	}
}
