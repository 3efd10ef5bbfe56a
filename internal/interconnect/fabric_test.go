package interconnect

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"

	"secmgpu/internal/config"
	"secmgpu/internal/sim"
)

// testConfig is the fabric the tests time by hand: Table III's links and
// latencies (PCIe 32 B/cycle and 400 cycles, NVLink 50 B/cycle and 100
// cycles, a 150 B/cycle GPU NIC) with no per-message overhead.
func testConfig(gpus int) config.Config {
	cfg := config.Default(gpus)
	cfg.MsgOverheadCycles = 0
	return cfg
}

func testFabric(t *testing.T, gpus int) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewFabric(e, testConfig(gpus))
}

type sink struct {
	arrivals []sim.Cycle
	msgs     []*Message
}

func (s *sink) Deliver(now sim.Cycle, msg *Message) {
	s.arrivals = append(s.arrivals, now)
	s.msgs = append(s.msgs, msg)
}

func TestSingleMessageLatency(t *testing.T) {
	e, f := testFabric(t, 4)
	dst := &sink{}
	f.Register(2, dst)

	// 100B over NVLink: NIC ceil(100/150)=1, wire ceil(100/50)=2,
	// latency 100, receiver NIC 1 => arrival at 104.
	msg := &Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 100}
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) { f.Send(msg) }), nil)
	end, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(dst.arrivals) != 1 || dst.arrivals[0] != 104 {
		t.Fatalf("arrivals=%v, want [104]", dst.arrivals)
	}
	if end != 104 {
		t.Fatalf("end=%d", end)
	}
}

func TestPCIePathSlowerThanNVLink(t *testing.T) {
	e, f := testFabric(t, 4)
	cpuSink, gpuSink := &sink{}, &sink{}
	f.Register(CPUNode, cpuSink)
	f.Register(2, gpuSink)

	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: CPUNode, BaseBytes: 64})
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 64})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(cpuSink.arrivals) != 1 || len(gpuSink.arrivals) != 1 {
		t.Fatalf("arrivals cpu=%v gpu=%v", cpuSink.arrivals, gpuSink.arrivals)
	}
	if cpuSink.arrivals[0] <= gpuSink.arrivals[0] {
		t.Errorf("PCIe arrival %d should be later than NVLink arrival %d",
			cpuSink.arrivals[0], gpuSink.arrivals[0])
	}
}

func TestWireSerializationQueues(t *testing.T) {
	e, f := testFabric(t, 4)
	dst := &sink{}
	f.Register(2, dst)

	// Two back-to-back 500B messages on the same 50 B/cy wire must be
	// spaced by the 10-cycle wire occupancy, not arrive together.
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 2; i++ {
			f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 500})
		}
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(dst.arrivals) != 2 {
		t.Fatalf("arrivals=%v", dst.arrivals)
	}
	gap := dst.arrivals[1] - dst.arrivals[0]
	if gap != 10 {
		t.Errorf("arrival gap=%d, want 10 (500B / 50B per cycle)", gap)
	}
}

func TestSharedPCIeBusContention(t *testing.T) {
	e, f := testFabric(t, 4)
	cpu := &sink{}
	f.Register(CPUNode, cpu)

	// Four GPUs each send 320B to the CPU at cycle 0. The CPU-side NIC is
	// one shared 32 B/cycle stage, so the four messages must eject
	// serially: 10 cycles apart.
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for g := 1; g <= 4; g++ {
			f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: NodeID(g), Dst: CPUNode, BaseBytes: 320})
		}
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(cpu.arrivals) != 4 {
		t.Fatalf("arrivals=%v", cpu.arrivals)
	}
	for i := 1; i < 4; i++ {
		if gap := cpu.arrivals[i] - cpu.arrivals[i-1]; gap != 10 {
			t.Errorf("ejection gap %d->%d = %d, want 10 (shared PCIe)", i-1, i, gap)
		}
	}
}

func TestDistinctWiresDoNotContend(t *testing.T) {
	e, f := testFabric(t, 4)
	s2, s3 := &sink{}, &sink{}
	f.Register(2, s2)
	f.Register(3, s3)

	// GPU1 -> GPU2 and GPU4 -> GPU3 use disjoint wires and NICs: both
	// should arrive at the same cycle.
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 100})
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 4, Dst: 3, BaseBytes: 100})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s2.arrivals) != 1 || len(s3.arrivals) != 1 || s2.arrivals[0] != s3.arrivals[0] {
		t.Errorf("arrivals %v vs %v, want identical", s2.arrivals, s3.arrivals)
	}
}

func TestGPUNICAggregatesAcrossPeers(t *testing.T) {
	e, f := testFabric(t, 4)
	s2, s3 := &sink{}, &sink{}
	f.Register(2, s2)
	f.Register(3, s3)

	// GPU1 sends 1500B to GPU2 and to GPU3. Separate wires, but the same
	// 150 B/cycle injection NIC: the second message starts injecting 10
	// cycles after the first.
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 1500})
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 3, BaseBytes: 1500})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(s2.arrivals) != 1 || len(s3.arrivals) != 1 {
		t.Fatalf("arrivals %v %v", s2.arrivals, s3.arrivals)
	}
	if gap := s3.arrivals[0] - s2.arrivals[0]; gap != 10 {
		t.Errorf("NIC aggregation gap=%d, want 10 (1500B / 150B per cycle)", gap)
	}
}

func TestTrafficAccounting(t *testing.T) {
	e, f := testFabric(t, 2)
	f.Register(2, &sink{})
	f.Register(CPUNode, &sink{})

	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 74, MetaBytes: 17})
		f.Send(&Message{Kind: KindSecACK, Category: CatSecACK, Src: 1, Dst: 2, MetaBytes: 18})
		f.Send(&Message{Kind: KindReadReq, Category: CatData, Src: 1, Dst: CPUNode, BaseBytes: 26})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := f.Stats()
	if st.Messages != 3 {
		t.Errorf("messages=%d, want 3", st.Messages)
	}
	if st.BaseBytes != 100 {
		t.Errorf("base=%d, want 100", st.BaseBytes)
	}
	if st.MetaBytes != 35 {
		t.Errorf("meta=%d, want 35", st.MetaBytes)
	}
	if st.TotalBytes() != 135 {
		t.Errorf("total=%d, want 135", st.TotalBytes())
	}
	if st.ByCategory[CatSecACK] != 18 {
		t.Errorf("ack bytes=%d, want 18", st.ByCategory[CatSecACK])
	}
	if st.NodeSentBytes(1) != 135 {
		t.Errorf("node1 sent=%d, want 135", st.NodeSentBytes(1))
	}
	if st.NodeReceivedBytes(2) != 109 {
		t.Errorf("node2 recv=%d, want 109", st.NodeReceivedBytes(2))
	}
}

func TestSendPanics(t *testing.T) {
	e, f := testFabric(t, 2)
	f.Register(1, &sink{})
	cases := map[string]*Message{
		"self send":    {Src: 1, Dst: 1, BaseBytes: 1},
		"out of range": {Src: 1, Dst: 9, BaseBytes: 1},
		"no deliverer": {Src: 1, Dst: 2, BaseBytes: 1},
	}
	for name, msg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			e.Schedule(e.Now(), sim.HandlerFunc(func(sim.Event) { f.Send(msg) }), nil)
			_, _ = e.Run()
		}()
	}
}

// Property: for any batch of same-size messages between one pair, arrivals
// are monotonically spaced by at least the wire occupancy, and total bytes
// accounted equal messages x size.
func TestFIFOSpacingProperty(t *testing.T) {
	prop := func(nMsgs uint8, sz uint16) bool {
		n := int(nMsgs%20) + 1
		size := int(sz%1000) + 1
		e, f := testFabric(t, 2)
		dst := &sink{}
		f.Register(2, dst)
		e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
			for i := 0; i < n; i++ {
				f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: size})
			}
		}), nil)
		if _, err := e.Run(); err != nil {
			return false
		}
		if len(dst.arrivals) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if dst.arrivals[i] <= dst.arrivals[i-1] {
				return false
			}
		}
		return f.Stats().TotalBytes() == uint64(n*size)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchTopologyCrossbarContention(t *testing.T) {
	cfg := testConfig(4)
	cfg.PCIeLatency = 0
	cfg.SwitchTopology = true
	e := sim.NewEngine()
	f := NewFabric(e, cfg)
	f.crossbar.bandwidth = 50 // deliberately narrow: one link's worth
	s2, s3 := &sink{}, &sink{}
	f.Register(2, s2)
	f.Register(3, s3)
	// Disjoint pairs that would not contend on a p2p fabric must now
	// serialize through the shared crossbar.
	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 500})
		f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 4, Dst: 3, BaseBytes: 500})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s2.arrivals) != 1 || len(s3.arrivals) != 1 {
		t.Fatalf("arrivals %v %v", s2.arrivals, s3.arrivals)
	}
	gap := s3.arrivals[0] - s2.arrivals[0]
	if gap != 10 {
		t.Errorf("crossbar gap=%d, want 10 (500B / 50B per cycle shared)", gap)
	}
}

func TestSwitchTopologyCPUPathUnchanged(t *testing.T) {
	mk := func(switched bool) sim.Cycle {
		cfg := testConfig(2)
		cfg.NVLinkLatency = 0
		cfg.SwitchTopology = switched
		e := sim.NewEngine()
		f := NewFabric(e, cfg)
		cpu := &sink{}
		f.Register(CPUNode, cpu)
		e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
			f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: CPUNode, BaseBytes: 64})
		}), nil)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return cpu.arrivals[0]
	}
	if p2p, sw := mk(false), mk(true); p2p != sw {
		t.Errorf("CPU path differs across topologies: %d vs %d", p2p, sw)
	}
}

func TestSwitchTopologyAddsHopLatency(t *testing.T) {
	mk := func(switched bool) sim.Cycle {
		cfg := testConfig(2)
		cfg.PCIeLatency = 0
		cfg.SwitchTopology = switched
		e := sim.NewEngine()
		f := NewFabric(e, cfg)
		dst := &sink{}
		f.Register(2, dst)
		e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
			f.Send(&Message{Kind: KindDataResp, Category: CatData, Src: 1, Dst: 2, BaseBytes: 64})
		}), nil)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return dst.arrivals[0]
	}
	p2p, sw := mk(false), mk(true)
	if sw <= p2p {
		t.Errorf("switch path %d not slower than p2p %d for a single message", sw, p2p)
	}
}

func TestTrafficStatsJSONRoundTrip(t *testing.T) {
	s := newStats(5)
	s.record(&Message{Src: 1, Dst: 3, BaseBytes: 64, MetaBytes: 16, Category: CatData})
	s.record(&Message{Src: 2, Dst: 0, BaseBytes: 64, MemProtBytes: 8, Category: CatData})
	s.FaultDropped = 2
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.TotalBytes() != s.TotalBytes() || got.Messages != s.Messages {
		t.Fatalf("round-trip total=%d msgs=%d, want %d/%d", got.TotalBytes(), got.Messages, s.TotalBytes(), s.Messages)
	}
	for n := 0; n < 5; n++ {
		id := NodeID(n)
		if got.NodeSentBytes(id) != s.NodeSentBytes(id) || got.NodeReceivedBytes(id) != s.NodeReceivedBytes(id) {
			t.Errorf("node %d per-node bytes lost in round-trip", n)
		}
	}
	if got.ByCategory != s.ByCategory {
		t.Errorf("category vector lost: %v != %v", got.ByCategory, s.ByCategory)
	}
	if got.FaultDropped != 2 {
		t.Errorf("fault counters lost")
	}
	// A category vector from a different build is rejected.
	if err := json.Unmarshal([]byte(`{"messages":1,"bycat":[1,2]}`), &got); err == nil {
		t.Error("accepted a mis-sized category vector")
	}
}
