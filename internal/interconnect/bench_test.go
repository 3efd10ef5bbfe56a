package interconnect

import (
	"testing"

	"secmgpu/internal/sim"
)

// nopDeliverer accepts a message without retaining it, so the fabric
// releases it to the pool after delivery.
type nopDeliverer struct{}

func (nopDeliverer) Deliver(sim.Cycle, *Message) {}

// BenchmarkSendDeliver times one message's full trip through the fabric:
// AcquireMessage, Send (stage serialization and routing), the engine step
// that fires the arrival, deliverEvent, and the release back to the pool.
// Messages rotate over every directed pair of a 4-GPU system, so both the
// PCIe and the GPU-GPU paths are timed. It allocates nothing in steady
// state.
func BenchmarkSendDeliver(b *testing.B) {
	for _, topo := range []Topology{TopologyP2P, TopologySwitch} {
		b.Run(topo.String(), func(b *testing.B) {
			e := sim.NewEngine()
			f := NewFabric(e, FabricConfig{
				NumGPUs:         4,
				PCIeBandwidth:   32,
				NVLinkBandwidth: 50,
				GPUNICBandwidth: 150,
				PCIeLatency:     400,
				NVLinkLatency:   100,
				MsgOverhead:     2,
				Topology:        topo,
			})
			var pairs [][2]NodeID
			for s := 0; s < f.NumNodes(); s++ {
				f.Register(NodeID(s), nopDeliverer{})
				for d := 0; d < f.NumNodes(); d++ {
					if s != d {
						pairs = append(pairs, [2]NodeID{NodeID(s), NodeID(d)})
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				msg := AcquireMessage()
				msg.Kind, msg.Category = KindDataResp, CatData
				msg.Src, msg.Dst = p[0], p[1]
				msg.BaseBytes, msg.MetaBytes = 74, 17
				f.Send(msg)
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
