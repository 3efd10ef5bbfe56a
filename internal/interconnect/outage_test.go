package interconnect

import (
	"encoding/json"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/sim"
)

// secMsg builds a pooled protected message, the kind outages blackhole.
func secMsg(f *Fabric, src, dst NodeID) *Message {
	m := f.AcquireMessage()
	m.Kind, m.Category = KindDataResp, CatData
	m.Src, m.Dst = src, dst
	m.BaseBytes = 64
	env := m.AttachSec()
	env.SenderID = src
	return m
}

// A scripted link outage swallows protected traffic in its window — both
// directions of the undirected link — and nothing outside it.
func TestForcedLinkOutageBlackholesWindow(t *testing.T) {
	e, f := testFabric(t, 4)
	s1, s2 := &sink{}, &sink{}
	f.Register(1, s1)
	f.Register(2, s2)
	f.ForceLinkOutage(1, 2, 100, 200)

	send := func(at sim.Cycle, src, dst NodeID) {
		e.Schedule(at, sim.HandlerFunc(func(sim.Event) { f.Send(secMsg(f, src, dst)) }), nil)
	}
	send(0, 1, 2)   // before the window: delivered
	send(150, 1, 2) // inside: blackholed
	send(150, 2, 1) // reverse direction inside: blackholed too
	send(250, 1, 2) // after: delivered
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s2.arrivals) != 2 {
		t.Errorf("forward arrivals=%d, want 2", len(s2.arrivals))
	}
	if len(s1.arrivals) != 0 {
		t.Errorf("reverse arrivals=%d, want 0", len(s1.arrivals))
	}
	st := f.Stats()
	if st.OutageDropped != 2 {
		t.Errorf("outageDropped=%d, want 2", st.OutageDropped)
	}
	if st.LinkOutages != 1 {
		t.Errorf("linkOutages=%d, want 1", st.LinkOutages)
	}
}

// A downed link only affects its own pair: other links stay up.
func TestForcedLinkOutageIsPerLink(t *testing.T) {
	e, f := testFabric(t, 4)
	s2, s3 := &sink{}, &sink{}
	f.Register(2, s2)
	f.Register(3, s3)
	f.ForceLinkOutage(1, 2, 0, 1000)

	e.Schedule(10, sim.HandlerFunc(func(sim.Event) {
		f.Send(secMsg(f, 1, 2))
		f.Send(secMsg(f, 1, 3))
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s2.arrivals) != 0 || len(s3.arrivals) != 1 {
		t.Errorf("arrivals 1->2=%d 1->3=%d, want 0/1", len(s2.arrivals), len(s3.arrivals))
	}
}

// A node reset blackholes all protected traffic to AND from the node, on
// every link it touches.
func TestForcedNodeOutageBlackholesBothDirections(t *testing.T) {
	e, f := testFabric(t, 4)
	sinks := make([]*sink, 5)
	for i := range sinks {
		sinks[i] = &sink{}
		f.Register(NodeID(i), sinks[i])
	}
	f.ForceNodeOutage(2, 100, 200)

	e.Schedule(150, sim.HandlerFunc(func(sim.Event) {
		f.Send(secMsg(f, 1, 2)) // toward the resetting node
		f.Send(secMsg(f, 2, 3)) // from it
		f.Send(secMsg(f, 1, 3)) // uninvolved pair: unaffected
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[2].arrivals) != 0 {
		t.Errorf("traffic into resetting node delivered")
	}
	if got := len(sinks[3].arrivals); got != 1 {
		t.Errorf("node-3 arrivals=%d, want 1 (only the uninvolved pair)", got)
	}
	if st := f.Stats(); st.OutageDropped != 2 || st.NodeOutages != 1 {
		t.Errorf("outageDropped=%d nodeOutages=%d, want 2/1", st.OutageDropped, st.NodeOutages)
	}
}

// The unprotected control plane is exempt: a message without a Sec
// envelope crosses even a dark link. This is what keeps the baseline
// simulation drainable no matter the outage profile.
func TestOutagesSpareControlPlane(t *testing.T) {
	e, f := testFabric(t, 2)
	dst := &sink{}
	f.Register(2, dst)
	f.ForceLinkOutage(1, 2, 0, 1_000_000)

	e.Schedule(10, sim.HandlerFunc(func(sim.Event) {
		f.Send(&Message{Kind: KindReadReq, Category: CatData, Src: 1, Dst: 2, BaseBytes: 26})
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.arrivals) != 1 {
		t.Fatalf("control message blackholed by outage")
	}
	if f.Stats().OutageDropped != 0 {
		t.Errorf("outageDropped=%d, want 0", f.Stats().OutageDropped)
	}
}

// randomOutageRun drives a fixed protected message schedule over a random
// outage profile and returns the resulting stats.
func randomOutageRun(t *testing.T, seed int64) Stats {
	t.Helper()
	cfg := testConfig(3)
	cfg.Outages = config.OutageProfile{LinkMTBF: 5000, LinkOutage: 1000, NodeMTBF: 20000, NodeOutage: 2000, Seed: seed}
	e := sim.NewEngine()
	f := NewFabric(e, cfg)
	for i := 0; i < 4; i++ {
		f.Register(NodeID(i), &sink{})
	}
	for at := sim.Cycle(0); at < 100_000; at += 50 {
		src := NodeID(1 + int(at/50)%3)
		dst := NodeID(1 + int(at/50+1)%3)
		e.Schedule(at, sim.HandlerFunc(func(sim.Event) { f.Send(secMsg(f, src, dst)) }), nil)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return *f.Stats()
}

// The random outage model actually fires, is deterministic under a fixed
// seed, and changes with the seed.
func TestRandomOutagesDeterministic(t *testing.T) {
	a := randomOutageRun(t, 7)
	b := randomOutageRun(t, 7)
	if a.OutageDropped == 0 || a.LinkOutages == 0 {
		t.Fatalf("profile never fired: dropped=%d linkOutages=%d", a.OutageDropped, a.LinkOutages)
	}
	if a.OutageDropped != b.OutageDropped || a.LinkOutages != b.LinkOutages || a.NodeOutages != b.NodeOutages {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if c := randomOutageRun(t, 8); c.OutageDropped == a.OutageDropped && c.LinkOutages == a.LinkOutages {
		t.Errorf("different seeds produced identical outage schedules")
	}
}

// Blackholed pooled messages are freed, not leaked: the fabric's count
// balances even when every message dies in an outage.
func TestOutageDropReleasesPooledMessages(t *testing.T) {
	e, f := testFabric(t, 2)
	f.Register(2, &sink{})
	f.ForceLinkOutage(1, 2, 0, 1_000_000)
	e.Schedule(10, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 16; i++ {
			f.Send(secMsg(f, 1, 2))
		}
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().OutageDropped != 16 {
		t.Fatalf("outageDropped=%d, want 16", f.Stats().OutageDropped)
	}
	if n := f.Outstanding(); n != 0 {
		t.Errorf("outstanding=%d after drain, want 0 (acquired=%d freed=%d)",
			n, f.acquired, f.freed)
	}
}

// The outage counters survive the store's JSON round-trip.
func TestOutageStatsJSONRoundTrip(t *testing.T) {
	s := newStats(3)
	s.OutageDropped, s.LinkOutages, s.NodeOutages = 5, 2, 1
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Stats
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.OutageDropped != 5 || got.LinkOutages != 2 || got.NodeOutages != 1 {
		t.Errorf("outage counters lost in round-trip: %+v", got)
	}
}
