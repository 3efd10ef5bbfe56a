package secure

import (
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/sim"
)

type capture struct {
	data   []*interconnect.Message
	ctrl   []*interconnect.Message
	when   []sim.Cycle
	onData func(msg *interconnect.Message)
}

func (c *capture) HandleData(now sim.Cycle, msg *interconnect.Message) {
	// Delivered messages are pooled and recycled once the handler returns;
	// keep deep copies for post-run inspection.
	c.data = append(c.data, msg.Clone())
	c.when = append(c.when, now)
	if c.onData != nil {
		c.onData(msg)
	}
}

func (c *capture) HandleControl(now sim.Cycle, msg *interconnect.Message) {
	c.ctrl = append(c.ctrl, msg.Clone())
}

type pair struct {
	cfg    config.Config
	engine *sim.Engine
	fabric *interconnect.Fabric
	a, b   *Endpoint
	ca, cb *capture
}

// newPair joins GPUs 1 and 2 of the 2-GPU system cfg. A secure pair runs
// functional crypto.
func newPair(t *testing.T, cfg config.Config) *pair {
	t.Helper()
	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	var ma, mb otp.Manager
	if cfg.Secure {
		ma = otp.NewPrivate(2, 4, crypto.NewEngine(40))
		mb = otp.NewPrivate(2, 4, crypto.NewEngine(40))
	}
	ca, cb := &capture{}, &capture{}
	p := &pair{cfg: cfg, engine: e, fabric: f, ca: ca, cb: cb}
	p.a = New(e, f, 1, &p.cfg, cfg.Secure, ma, ca)
	p.b = New(e, f, 2, &p.cfg, cfg.Secure, mb, cb)
	// The CPU node must have a deliverer too.
	newUnsecure(e, f, interconnect.CPUNode, &capture{})
	return p
}

// newUnsecure builds an endpoint that sends and delivers in the clear.
func newUnsecure(e *sim.Engine, f *interconnect.Fabric, node interconnect.NodeID, h Handler) *Endpoint {
	return New(e, f, node, &config.Config{}, false, nil, h)
}

func payload(b byte) []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = b + byte(i)
	}
	return p
}

// secureConfig is the 2-GPU system of the channel tests: secure and
// batched with n = 4, metadata and CPU-memory-protection traffic on, the
// recovery protocol's default timers, resync and rekeying off, and no
// per-message fabric overhead.
func secureConfig() config.Config {
	c := config.Default(2)
	c.Secure, c.Batching = true, true
	c.BatchSize = 4
	c.ResyncThreshold, c.RekeyEpoch = 0, 0
	c.MsgOverheadCycles = 0
	return c
}

func TestPeerIndexRoundTrip(t *testing.T) {
	for self := interconnect.NodeID(0); self < 5; self++ {
		seen := map[int]bool{}
		for other := interconnect.NodeID(0); other < 5; other++ {
			if other == self {
				continue
			}
			idx := PeerIndex(self, other)
			if idx < 0 || idx >= 4 {
				t.Fatalf("PeerIndex(%v,%v)=%d out of range", self, other, idx)
			}
			if seen[idx] {
				t.Fatalf("PeerIndex(%v,%v)=%d collides", self, other, idx)
			}
			seen[idx] = true
			if got := PeerID(self, idx); got != other {
				t.Fatalf("PeerID(%v,%d)=%v, want %v", self, idx, got, other)
			}
		}
	}
}

func TestPeerIndexSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self peer did not panic")
		}
	}()
	PeerIndex(1, 1)
}

func TestUnsecureDataPassesThrough(t *testing.T) {
	cfg := secureConfig()
	cfg.Secure = false
	p := newPair(t, cfg)
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 1, 0x40, payload(1), false)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.cb.data) != 1 {
		t.Fatalf("delivered=%d, want 1", len(p.cb.data))
	}
	if p.cb.data[0].MetaBytes != 0 || p.cb.data[0].Sec != nil {
		t.Error("unsecure message carries security metadata")
	}
	if p.fabric.Stats().MetaBytes != 0 {
		t.Error("unsecure run accounted metadata bytes")
	}
}

func TestSecureDataDecryptsAndACKs(t *testing.T) {
	p := newPair(t, secureConfig())
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 1, 0x40, payload(7), false)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.cb.data) != 1 {
		t.Fatalf("delivered=%d, want 1", len(p.cb.data))
	}
	msg := p.cb.data[0]
	if msg.Sec == nil || msg.MetaBytes == 0 {
		t.Fatal("secure message lacks envelope/metadata")
	}
	// Batching is on in secureOpts: per-block meta is CTR+ID (+len byte).
	if msg.MetaBytes != InlineMetaBatch+BatchLenByte {
		t.Errorf("meta=%d, want %d", msg.MetaBytes, InlineMetaBatch+BatchLenByte)
	}
	// One block never fills the 4-block batch; the timeout flush must
	// eventually deliver the Batched_MsgMAC and trigger the single ACK.
	if p.b.Stats().BatchesVerified != 1 {
		t.Errorf("verified=%d, want 1 (timeout flush)", p.b.Stats().BatchesVerified)
	}
	if p.a.Stats().TimeoutFlushes != 1 {
		t.Errorf("timeout flushes=%d, want 1", p.a.Stats().TimeoutFlushes)
	}
	if p.b.Stats().ACKsSent != 1 || p.a.Stats().ACKsReceived != 1 {
		t.Errorf("acks sent=%d recv=%d, want 1/1", p.b.Stats().ACKsSent, p.a.Stats().ACKsReceived)
	}
	if p.b.Stats().DecryptFailed != 0 || p.b.Stats().DecryptOK != 1 {
		t.Errorf("decrypt ok=%d fail=%d", p.b.Stats().DecryptOK, p.b.Stats().DecryptFailed)
	}
}

func TestConventionalPerMessageACK(t *testing.T) {
	cfg := secureConfig()
	cfg.Batching = false
	p := newPair(t, cfg)
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 3; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), 0x40, payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.cb.data) != 3 {
		t.Fatalf("delivered=%d, want 3", len(p.cb.data))
	}
	if p.cb.data[0].MetaBytes != InlineMetaConv {
		t.Errorf("meta=%d, want %d", p.cb.data[0].MetaBytes, InlineMetaConv)
	}
	if p.b.Stats().ACKsSent != 3 {
		t.Errorf("acks=%d, want one per message", p.b.Stats().ACKsSent)
	}
	if p.b.Stats().DecryptOK != 3 {
		t.Errorf("decrypt ok=%d, want 3", p.b.Stats().DecryptOK)
	}
}

func TestBatchingReducesMetadataTraffic(t *testing.T) {
	run := func(batching bool) uint64 {
		cfg := secureConfig()
		cfg.Batching = batching
		cfg.BatchSize = 16 // the paper's n
		p := newPair(t, cfg)
		p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
			for i := 0; i < 16; i++ {
				p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
			}
		}), nil)
		if _, err := p.engine.Run(); err != nil {
			t.Fatal(err)
		}
		st := p.fabric.Stats()
		return st.MetaBytes
	}
	conv := run(false)
	batched := run(true)
	if batched*2 >= conv {
		t.Errorf("batched meta=%d, conventional=%d; batching should cut metadata by more than half", batched, conv)
	}
}

func TestBatchCompletionVerifiesWithoutTimeout(t *testing.T) {
	p := newPair(t, secureConfig()) // batch size 4
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 4; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if p.a.Stats().TimeoutFlushes != 0 {
		t.Errorf("timeout flushes=%d, want 0 for a full batch", p.a.Stats().TimeoutFlushes)
	}
	if p.b.Stats().BatchesVerified != 1 || p.b.Stats().BatchesFailed != 0 {
		t.Errorf("verified=%d failed=%d, want 1/0", p.b.Stats().BatchesVerified, p.b.Stats().BatchesFailed)
	}
	if p.b.Stats().ACKsSent != 1 {
		t.Errorf("acks=%d, want a single ACK per batch", p.b.Stats().ACKsSent)
	}
}

func TestOTPStallDelaysDelivery(t *testing.T) {
	// A same-cycle burst larger than the pad allocation forces send-side
	// stalls: later blocks must be injected later.
	p := newPair(t, secureConfig())
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 8; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.cb.when) != 8 {
		t.Fatalf("delivered=%d, want 8", len(p.cb.when))
	}
	sendStats := p.a.OTPStats()
	if sendStats.Counts[otp.Send][otp.Miss] == 0 {
		t.Error("expected send-side misses in an 8-deep burst with 4 pads")
	}
	if p.cb.when[7] < p.cb.when[3]+40 {
		t.Errorf("stalled block arrived at %d vs %d; missing AES delay", p.cb.when[7], p.cb.when[3])
	}
}

// retainCounter wraps an endpoint on the fabric and counts the deliveries
// it retains past their Deliver call.
type retainCounter struct {
	ep       *Endpoint
	retained int
}

func (r *retainCounter) Deliver(now sim.Cycle, msg *interconnect.Message) {
	r.ep.Deliver(now, msg)
	if msg.Retained() {
		r.retained++
	}
}

// A receiver short of pads retains each stalled delivery past its Deliver
// call and must hand the message back to the fabric once the node has
// consumed it: after the drain nothing is outstanding.
func TestRetainedDeliveryIsFreed(t *testing.T) {
	cfg := secureConfig()
	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	cb := &capture{}
	a := New(e, f, 1, &cfg, true, otp.NewPrivate(2, 16, crypto.NewEngine(40)), &capture{})
	b := New(e, f, 2, &cfg, true, otp.NewPrivate(2, 1, crypto.NewEngine(40)), cb)
	newUnsecure(e, f, interconnect.CPUNode, &capture{})
	rc := &retainCounter{ep: b}
	f.Register(2, rc)
	e.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 8; i++ {
			a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rc.retained == 0 || len(cb.data) != 8 {
		t.Fatalf("retained %d deliveries, delivered %d; want some retained and all 8 delivered", rc.retained, len(cb.data))
	}
	if n := f.Outstanding(); n != 0 {
		t.Errorf("%d messages outstanding after the drain; a retained delivery was not freed", n)
	}
}

func TestMemProtBytesOnlyWhenFlagged(t *testing.T) {
	p := newPair(t, secureConfig())
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 1, 0x40, payload(1), true)
		p.a.SendData(2, interconnect.KindDataResp, 2, 0x80, payload(2), false)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.fabric.Stats().MemProtBytes; got != MemProtBytes {
		t.Errorf("memprot bytes=%d, want %d (one flagged block)", got, MemProtBytes)
	}
}

func TestLatencyOnlyModeAddsNoBytes(t *testing.T) {
	cfg := secureConfig()
	cfg.MetadataTraffic = false
	p := newPair(t, cfg)
	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 8; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), true)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	st := p.fabric.Stats()
	if st.MetaBytes != 0 || st.MemProtBytes != 0 {
		t.Errorf("latency-only run accounted meta=%d memprot=%d", st.MetaBytes, st.MemProtBytes)
	}
	// Stalls still happen.
	if p.a.OTPStats().Counts[otp.Send][otp.Miss] == 0 {
		t.Error("latency-only mode lost the OTP stalls")
	}
}

func TestControlMessagesBypassSecurity(t *testing.T) {
	p := newPair(t, secureConfig())
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		p.a.SendControl(2, interconnect.KindReadReq, 9, 0x1000, ReadReqBytes)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(p.cb.ctrl) != 1 || p.cb.ctrl[0].ReqID != 9 {
		t.Fatalf("control=%v", p.cb.ctrl)
	}
	if p.a.OTPStats().Uses(otp.Send) != 0 {
		t.Error("control message consumed an OTP")
	}
}

func TestSecureEndpointRequiresManager(t *testing.T) {
	cfg := secureConfig()
	cfg.PCIeLatency, cfg.NVLinkLatency = 0, 0
	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	defer func() {
		if recover() == nil {
			t.Error("secure endpoint without manager did not panic")
		}
	}()
	New(e, f, 1, &cfg, false, nil, &capture{})
}
