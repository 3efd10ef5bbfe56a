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

// recoveryHarness is a two-endpoint secure channel with the recovery
// protocol enabled and an adversary on BOTH delivery paths: the data
// direction (sender -> receiver) and the feedback direction (ACKs, NACKs,
// Batched_MsgMACs flowing back).
type recoveryHarness struct {
	cfg              config.Config
	engine           *sim.Engine
	sender, receiver *secure.Endpoint
	toRecv, toSend   *Injector
	delivered        int
}

func (h *recoveryHarness) HandleData(now sim.Cycle, msg *interconnect.Message) { h.delivered++ }
func (h *recoveryHarness) HandleControl(sim.Cycle, *interconnect.Message)      {}

func newRecoveryHarness(t *testing.T, dataScript, feedbackScript Script) *recoveryHarness {
	t.Helper()
	h := &recoveryHarness{cfg: channelConfig(true), engine: sim.NewEngine()}
	h.cfg.RetransTimeout = 3000
	h.cfg.StaleBatchTimeout = 1500
	e := h.engine
	f := interconnect.NewFabric(e, h.cfg)
	h.sender = secure.New(e, f, 1, &h.cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), nullHandler{})
	h.receiver = secure.New(e, f, 2, &h.cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), h)
	newUnsecure(e, f, interconnect.CPUNode, nullHandler{})
	h.toRecv = NewInjector(e, h.receiver, dataScript)
	h.toSend = NewInjector(e, h.sender, feedbackScript)
	f.Register(2, h.toRecv)
	f.Register(1, h.toSend)
	return h
}

func (h *recoveryHarness) sendBlocks(n int) {
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

// assertRecovered checks the invariant every adversarial recovery run must
// end in: the sender holds no unresolved units or pending-ACK debt, the
// receiver holds no half-filled batches, and every block was either
// delivered and verified or explicitly poisoned.
func assertRecovered(t *testing.T, h *recoveryHarness) {
	t.Helper()
	if n := h.sender.PendingACK(); n != 0 {
		t.Errorf("sender pendingACK=%d after drain, want 0", n)
	}
	if n := h.sender.OpenUnits(); n != 0 {
		t.Errorf("sender openUnits=%d after drain, want 0", n)
	}
	if n := h.receiver.FillingBatches(); n != 0 {
		t.Errorf("receiver fillingBatches=%d after drain, want 0", n)
	}
}

// An adversary randomly dropping, tampering, and replaying data blocks on
// the wire slows the channel down but cannot wedge it: the recovery
// protocol resolves every batch and the run drains.
func TestRecoveryUnderRandomDataAttacks(t *testing.T) {
	h := newRecoveryHarness(t,
		RandomMix(0.25, 42, Drop, TamperCiphertext, Replay),
		func(*interconnect.Message) (Kind, bool) { return 0, false })
	h.sendBlocks(40)

	st := h.sender.Stats()
	if h.toRecv.Stats().DataAttacked == 0 {
		t.Fatal("adversary never attacked the data stream")
	}
	if st.Retransmits == 0 {
		t.Error("attacks caused no retransmissions")
	}
	if h.receiver.Stats().BatchesVerified == 0 {
		t.Error("no batch ever verified under attack")
	}
	if h.delivered == 0 {
		t.Error("nothing was delivered")
	}
	assertRecovered(t, h)
}

// Attacking the feedback stream (ACKs and NACKs) instead of the data also
// fails to wedge the channel: lost ACKs trip the sender's timers and the
// retransmitted copies re-verify.
func TestRecoveryUnderACKAttacks(t *testing.T) {
	h := newRecoveryHarness(t,
		func(*interconnect.Message) (Kind, bool) { return 0, false },
		RandomMixOf(0.5, 7, TargetSecACK, Drop))
	h.sendBlocks(40)

	if h.toSend.Stats().ACKsAttacked == 0 {
		t.Fatal("adversary never attacked the ACK stream")
	}
	if h.sender.Stats().AckTimeouts == 0 {
		t.Error("dropped ACKs never tripped a retransmission timer")
	}
	if h.receiver.Stats().BatchesVerified == 0 {
		t.Error("no batch ever verified")
	}
	assertRecovered(t, h)
}

// Dropping Batched_MsgMACs leaves complete batches unverifiable; the
// stale-batch scan NACKs them and the re-sent unit (with a fresh
// Batched_MsgMAC) verifies.
func TestRecoveryUnderBatchMACAttacks(t *testing.T) {
	h := newRecoveryHarness(t,
		EveryNthOf(2, Drop, TargetBatchMAC),
		func(*interconnect.Message) (Kind, bool) { return 0, false })
	h.sendBlocks(40)

	if h.toRecv.Stats().BatchMACAttacked == 0 {
		t.Fatal("adversary never attacked the Batched_MsgMAC stream")
	}
	if h.sender.Stats().NACKsReceived == 0 {
		t.Error("orphaned batches were never NACKed")
	}
	if h.receiver.Stats().BatchesVerified == 0 {
		t.Error("no batch ever verified")
	}
	assertRecovered(t, h)
}

// The combined worst case: independent adversaries on the data and feedback
// directions at once. The channel must still resolve every unit.
func TestRecoveryUnderCombinedAttacks(t *testing.T) {
	h := newRecoveryHarness(t,
		Any(
			RandomMix(0.15, 3, Drop, TamperCiphertext, TamperMAC, Replay),
			RandomMixOf(0.15, 5, TargetBatchMAC, Drop),
		),
		RandomMixOf(0.2, 9, TargetSecACK, Drop))
	h.sendBlocks(60)

	in := h.toRecv.Stats()
	if in.DataAttacked == 0 || h.toSend.Stats().ACKsAttacked == 0 {
		t.Fatalf("adversaries idle: data=%d acks=%d", in.DataAttacked, h.toSend.Stats().ACKsAttacked)
	}
	if h.sender.Stats().Retransmits == 0 {
		t.Error("no retransmissions under combined attack")
	}
	assertRecovered(t, h)
}
