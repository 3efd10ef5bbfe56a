package secure

import (
	"testing"

	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/sim"
)

// discard is a node handler that drops every message it is handed.
type discard struct{}

func (discard) HandleData(sim.Cycle, *interconnect.Message)    {}
func (discard) HandleControl(sim.Cycle, *interconnect.Message) {}

// BenchmarkEndpointPair times one batch across the secure channel of a
// 2-GPU fabric with functional crypto: GPU 1 seals BatchSize blocks to
// GPU 2 and tracks them as one retransmission unit, GPU 2 delivers and
// verifies each block and the Batched_MsgMAC, and its ACK resolves the
// unit. One op is one batch, run until the engine
// drains; the unit comes from the free list and returns to it.
func BenchmarkEndpointPair(b *testing.B) {
	cfg := recoveryConfig()
	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	src := New(e, f, 1, &cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), discard{})
	New(e, f, 2, &cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), discard{})
	newUnsecure(e, f, interconnect.CPUNode, discard{})
	block := payload(7)
	var req uint64
	send := sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < cfg.BatchSize; i++ {
			req++
			src.SendData(2, interconnect.KindDataResp, req, req*64, block, false)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now(), send, nil)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := src.OpenUnits(); n != 0 {
		b.Fatalf("%d units still open after the run drained", n)
	}
	if st := src.Stats(); st.ACKsReceived != uint64(b.N) || st.Retransmits != 0 {
		b.Fatalf("%d ACKs and %d retransmits for %d batches", st.ACKsReceived, st.Retransmits, b.N)
	}
}
