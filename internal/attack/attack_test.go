package attack

import (
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/secure"
	"secmgpu/internal/sim"
)

// harness builds two secure endpoints with an attack injector in front of
// the receiver. The endpoints run the recovery protocol with its default
// timers: a block or batch that fails verification is NACKed and re-sent,
// and the injector sees (and may attack) the re-sent copies too.
type harness struct {
	cfg      config.Config
	engine   *sim.Engine
	fabric   *interconnect.Fabric
	sender   *secure.Endpoint
	receiver *secure.Endpoint
	injector *Injector
	got      int
}

func (h *harness) HandleData(now sim.Cycle, msg *interconnect.Message) { h.got++ }
func (h *harness) HandleControl(sim.Cycle, *interconnect.Message)      {}

type nullHandler struct{}

func (nullHandler) HandleData(sim.Cycle, *interconnect.Message)    {}
func (nullHandler) HandleControl(sim.Cycle, *interconnect.Message) {}

// channelConfig is the 2-GPU system of the harnesses: secure with n = 4,
// metadata traffic on, CPU memory protection off, the recovery protocol's
// default timers, resync and rekeying off, and no per-message fabric
// overhead.
func channelConfig(batching bool) config.Config {
	c := config.Default(2)
	c.Secure, c.Batching = true, batching
	c.CPUMemProtection = false
	c.BatchSize = 4
	c.ResyncThreshold, c.RekeyEpoch = 0, 0
	c.MsgOverheadCycles = 0
	return c
}

// newUnsecure builds an endpoint that sends and delivers in the clear.
func newUnsecure(e *sim.Engine, f *interconnect.Fabric, node interconnect.NodeID, h secure.Handler) *secure.Endpoint {
	return secure.New(e, f, node, &config.Config{}, false, nil, h)
}

func newHarness(t *testing.T, batching bool, script Script) *harness {
	t.Helper()
	h := &harness{cfg: channelConfig(batching), engine: sim.NewEngine()}
	e := h.engine
	f := interconnect.NewFabric(e, h.cfg)
	h.fabric = f
	h.sender = secure.New(e, f, 1, &h.cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), nullHandler{})
	h.receiver = secure.New(e, f, 2, &h.cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), h)
	newUnsecure(e, f, interconnect.CPUNode, nullHandler{})
	// Interpose the adversary on the receiver's delivery path.
	h.injector = NewInjector(e, h.receiver, script)
	f.Register(2, h.injector)
	return h
}

func (h *harness) sendBlocks(n int) {
	h.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < n; i++ {
			p := make([]byte, 64)
			p[0] = byte(i)
			h.sender.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), p, false)
		}
	}), nil)
	if _, err := h.engine.Run(); err != nil {
		panic(err)
	}
}

// assertDrained checks that the sender ends with no unresolved unit and no
// pending-ACK debt.
func assertDrained(t *testing.T, h *harness) {
	t.Helper()
	if n, u := h.sender.PendingACK(), h.sender.OpenUnits(); n != 0 || u != 0 {
		t.Errorf("sender pendingACK=%d openUnits=%d after drain, want 0/0", n, u)
	}
}

func TestCiphertextTamperingIsDetected(t *testing.T) {
	h := newHarness(t, false, EveryNth(4, TamperCiphertext))
	h.sendBlocks(16)
	// Each tampered block is re-sent once more, so the injector sees 16
	// first sends plus one re-send per tamper: every 4th of those 21.
	tampered := h.injector.Stats().Tampered
	if tampered != 5 {
		t.Fatalf("tampered=%d, want 5", tampered)
	}
	st := h.receiver.Stats()
	if st.DecryptFailed != tampered {
		t.Errorf("decrypt failures=%d, want every one of the %d tampered blocks caught", st.DecryptFailed, tampered)
	}
	if st.NACKsSent != tampered || h.sender.Stats().Retransmits != tampered {
		t.Errorf("NACKs=%d retransmits=%d, want one each per tampered block (%d)",
			st.NACKsSent, h.sender.Stats().Retransmits, tampered)
	}
	if st.DecryptOK != 16 {
		t.Errorf("decrypt ok=%d, want each of the 16 blocks clean exactly once", st.DecryptOK)
	}
	if h.got != 16 {
		t.Errorf("delivered=%d, want 16 (a tampered block never reaches the node)", h.got)
	}
	assertDrained(t, h)
}

func TestMACForgeryIsDetected(t *testing.T) {
	h := newHarness(t, false, EveryNth(3, TamperMAC))
	h.sendBlocks(12)
	st := h.receiver.Stats()
	if want := h.injector.Stats().MACForged; st.DecryptFailed != want {
		t.Errorf("decrypt failures=%d, want %d forged MACs caught", st.DecryptFailed, want)
	}
}

func TestBatchedTamperingIsDetected(t *testing.T) {
	// Under batching, verification is lazy but still catches a corrupted
	// block when the Batched_MsgMAC is checked.
	h := newHarness(t, true, EveryNth(8, TamperCiphertext))
	h.sendBlocks(16) // 4 batches of 4
	// Each failed batch is re-sent whole, so the injector sees 16 first
	// sends plus 4 blocks per failure: every 8th of those 28.
	tampered := h.injector.Stats().Tampered
	if tampered != 3 {
		t.Fatalf("tampered=%d, want 3", tampered)
	}
	st := h.receiver.Stats()
	if st.BatchesFailed != tampered {
		t.Errorf("failed batches=%d, want one per tampered block (%d)", st.BatchesFailed, tampered)
	}
	if st.NACKsSent != tampered || h.sender.Stats().Retransmits != 4*tampered {
		t.Errorf("NACKs=%d retransmits=%d, want one NACK and a 4-block re-send per failed batch (%d)",
			st.NACKsSent, h.sender.Stats().Retransmits, tampered)
	}
	if st.Quarantined != 4*tampered {
		t.Errorf("quarantined=%d, want the %d blocks of the failed batches", st.Quarantined, 4*tampered)
	}
	if st.BatchesVerified != 4 {
		t.Errorf("verified batches=%d, want each of the 4 batches once (2 clean, 2 after re-sends)", st.BatchesVerified)
	}
	assertDrained(t, h)
}

func TestReplayIsDropped(t *testing.T) {
	h := newHarness(t, false, EveryNth(5, Replay))
	h.sendBlocks(20)
	st := h.receiver.Stats()
	if want := h.injector.Stats().Replayed; st.ReplaysDropped != want {
		t.Errorf("replays dropped=%d, want %d", st.ReplaysDropped, want)
	}
	// Every original block still decrypts and reaches the node exactly
	// once.
	if st.DecryptFailed != 0 {
		t.Errorf("decrypt failures=%d on replay attack", st.DecryptFailed)
	}
	if h.got != 20 {
		t.Errorf("delivered=%d, want 20 (no duplicates)", h.got)
	}
}

func TestDroppedBlockLeavesBatchUnverified(t *testing.T) {
	h := newHarness(t, true, EveryNth(16, Drop))
	// Probe the channel after the three intact batches verified but before
	// any recovery timer can fire: the ACK timeout (50,000 cycles) and the
	// stale-batch scan (25,000) both run from the sends at cycle 1,000.
	var midVerified, midACKs, midRetransmits uint64
	h.engine.Schedule(20_000, sim.HandlerFunc(func(sim.Event) {
		midVerified = h.receiver.Stats().BatchesVerified
		midACKs = h.sender.Stats().ACKsReceived
		midRetransmits = h.sender.Stats().Retransmits
	}), nil)
	h.sendBlocks(16) // last block of batch 4 dropped
	if h.injector.Stats().Dropped != 1 {
		t.Fatalf("dropped=%d, want 1", h.injector.Stats().Dropped)
	}
	if midVerified != 3 {
		t.Errorf("verified=%d before recovery, want 3; the incomplete batch must not verify", midVerified)
	}
	// The sender never receives the 4th batch's ACK: replay protection
	// keeps the un-acknowledged state pending until the batch is re-sent.
	if midACKs != 3 || midRetransmits != 0 {
		t.Errorf("acks received=%d retransmits=%d before recovery, want 3/0", midACKs, midRetransmits)
	}
	st := h.receiver.Stats()
	if st.BatchesVerified != 4 || st.BatchesFailed != 0 {
		t.Errorf("verified=%d failed=%d, want 4/0: the batch verifies only after its re-send",
			st.BatchesVerified, st.BatchesFailed)
	}
	if st.Quarantined != 3 {
		t.Errorf("quarantined=%d, want the 3 delivered blocks of the abandoned batch", st.Quarantined)
	}
	if got := h.sender.Stats().Retransmits; got != 4 {
		t.Errorf("retransmits=%d, want the 4 blocks of the batch missing a block", got)
	}
	if h.sender.Stats().ACKsReceived != 4 {
		t.Errorf("acks received=%d, want 4", h.sender.Stats().ACKsReceived)
	}
	assertDrained(t, h)
}

func TestUnsecureBaselineDetectsNothing(t *testing.T) {
	// Control experiment: without the protection mechanisms an in-flight
	// tamper reaches the node unnoticed.
	cfg := channelConfig(false)
	cfg.PCIeLatency, cfg.NVLinkLatency = 0, 0
	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	h := &harness{engine: e, fabric: f}
	h.sender = newUnsecure(e, f, 1, nullHandler{})
	h.receiver = newUnsecure(e, f, 2, h)
	newUnsecure(e, f, interconnect.CPUNode, nullHandler{})
	h.injector = NewInjector(e, h.receiver, EveryNth(2, Replay))
	f.Register(2, h.injector)
	h.sendBlocks(8)
	if h.receiver.Stats().ReplaysDropped != 0 {
		t.Error("unsecure endpoint claimed to drop replays")
	}
	if h.got != 12 {
		t.Errorf("delivered=%d, want 12 (8 + 4 accepted duplicates)", h.got)
	}
}

func TestRandomMixAttacksAreAllDetected(t *testing.T) {
	h := newHarness(t, false, RandomMix(0.3, 7, TamperCiphertext, TamperMAC, Replay))
	h.sendBlocks(60)
	ist := h.injector.Stats()
	st := h.receiver.Stats()
	attacks := ist.Tampered + ist.MACForged + ist.Replayed
	if attacks == 0 {
		t.Fatal("script never attacked")
	}
	caught := st.DecryptFailed + st.ReplaysDropped
	if caught != attacks {
		t.Errorf("caught %d of %d attacks (tamper=%d forge=%d replay=%d, failures=%d drops=%d)",
			caught, attacks, ist.Tampered, ist.MACForged, ist.Replayed,
			st.DecryptFailed, st.ReplaysDropped)
	}
}

func TestScriptValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nth":   func() { EveryNth(0, Replay) },
		"no kinds":   func() { RandomMix(0.5, 1) },
		"bad p":      func() { RandomMix(1.5, 1, Replay) },
		"nil target": func() { NewInjector(sim.NewEngine(), nil, EveryNth(1, Replay)) },
		"nil script": func() { NewInjector(sim.NewEngine(), nullDeliverer{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

type nullDeliverer struct{}

func (nullDeliverer) Deliver(sim.Cycle, *interconnect.Message) {}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		TamperCiphertext: "tamper-ciphertext",
		TamperMAC:        "tamper-mac",
		Replay:           "replay",
		Drop:             "drop",
		Kind(99):         "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d -> %q, want %q", int(k), got, want)
		}
	}
}
