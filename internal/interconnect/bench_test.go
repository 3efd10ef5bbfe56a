package interconnect

import (
	"testing"

	"secmgpu/internal/sim"
)

// nopDeliverer accepts a message without retaining it, so the fabric
// frees it to its list after delivery.
type nopDeliverer struct{}

func (nopDeliverer) Deliver(sim.Cycle, *Message) {}

// benchFabric builds a 4-GPU fabric with every node registered to d and
// returns it with every directed (src, dst) pair.
func benchFabric(switched bool, d Deliverer) (*sim.Engine, *Fabric, [][2]NodeID) {
	cfg := testConfig(4)
	cfg.MsgOverheadCycles = 2
	cfg.SwitchTopology = switched
	e := sim.NewEngine()
	f := NewFabric(e, cfg)
	var pairs [][2]NodeID
	for s := 0; s < f.NumNodes(); s++ {
		f.Register(NodeID(s), d)
		for d := 0; d < f.NumNodes(); d++ {
			if s != d {
				pairs = append(pairs, [2]NodeID{NodeID(s), NodeID(d)})
			}
		}
	}
	return e, f, pairs
}

// sendData acquires a data message for pair p and sends it.
func sendData(f *Fabric, p [2]NodeID) {
	msg := f.AcquireMessage()
	msg.Kind, msg.Category = KindDataResp, CatData
	msg.Src, msg.Dst = p[0], p[1]
	msg.BaseBytes, msg.MetaBytes = 74, 17
	f.Send(msg)
}

// benchWindow is how many messages BenchmarkSendDeliver/window keeps in
// flight, about one GPU's outstanding-request window.
const benchWindow = 256

// BenchmarkSendDeliver times one message's full trip through the fabric:
// AcquireMessage, Send (stage serialization and routing), the engine step
// that fires the arrival, deliverEvent, and the free back to the fabric's
// list. Messages rotate over every directed pair of a 4-GPU system, so both
// the PCIe and the GPU-GPU paths are timed. The p2p and switch cases keep
// one message in flight. The window case keeps benchWindow in flight, as a
// cell does: each delivery sends the next message, so the free list is
// pushed and popped with hundreds of messages out. Every case allocates
// nothing in steady state.
func BenchmarkSendDeliver(b *testing.B) {
	for _, topo := range []struct {
		name     string
		switched bool
	}{{"p2p", false}, {"switch", true}} {
		b.Run(topo.name, func(b *testing.B) {
			e, f, pairs := benchFabric(topo.switched, nopDeliverer{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sendData(f, pairs[i%len(pairs)])
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("window", func(b *testing.B) {
		var f *Fabric
		var pairs [][2]NodeID
		sent, limit := 0, 0
		next := func() {
			sendData(f, pairs[sent%len(pairs)])
			sent++
		}
		relay := DelivererFunc(func(sim.Cycle, *Message) {
			if sent < limit {
				next()
			}
		})
		var e *sim.Engine
		e, f, pairs = benchFabric(false, relay)
		run := func(n int) {
			sent, limit = 0, n
			for i := 0; i < benchWindow && sent < limit; i++ {
				next()
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
		// One untimed pass fills the free list and the engine's slabs.
		run(4 * benchWindow)
		b.ReportAllocs()
		b.ResetTimer()
		run(b.N)
	})
}
