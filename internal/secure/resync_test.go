package secure

import (
	"bytes"
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/sim"
)

// resyncConfig is recoveryConfig with a resync after three failures in a
// row.
func resyncConfig() config.Config {
	c := recoveryConfig()
	c.ResyncThreshold = 3
	return c
}

// The handshake frame survives a round trip for every type, and every
// single-byte mutation of a valid frame is rejected.
func TestResyncFrameRoundTrip(t *testing.T) {
	for _, typ := range []byte{frameResync, frameRekey, frameAck} {
		in := resyncFrame{Type: typ, Seq: 7, Base: 1 << 33}
		var buf [resyncFrameBytes]byte
		encodeResyncFrame(buf[:], in)
		out, ok := decodeResyncFrame(buf[:])
		if !ok || out != in {
			t.Fatalf("type %d: round trip gave %+v ok=%t, want %+v", typ, out, ok, in)
		}
		for i := range buf {
			mut := buf
			mut[i] ^= 0x40
			if _, ok := decodeResyncFrame(mut[:]); ok {
				t.Errorf("type %d: flipped byte %d still decoded", typ, i)
			}
		}
	}
	if _, ok := decodeResyncFrame(nil); ok {
		t.Error("nil frame decoded")
	}
	var zeroBase [resyncFrameBytes]byte
	encodeResyncFrame(zeroBase[:], resyncFrame{Type: frameResync, Seq: 1, Base: 0})
	if _, ok := decodeResyncFrame(zeroBase[:]); ok {
		t.Error("base 0 decoded; it would underflow the replay-guard install")
	}
}

// A link outage spanning several ACK timeouts drives the failure streak to
// the threshold; the RESYNC handshake retries through the dark window and,
// once the link returns, re-agrees the counter base and re-sends every
// parked block — no poisoning, everything verified, every pooled message
// returned.
func TestOutageTriggersResyncAndRecovers(t *testing.T) {
	p := newPair(t, resyncConfig())
	p.fabric.ForceLinkOutage(1, 2, 0, 50_000)

	p.engine.Schedule(1000, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 4; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sb := p.a.Stats(), p.b.Stats()
	if p.fabric.Stats().OutageDropped == 0 {
		t.Fatal("the outage never blackholed anything")
	}
	if sa.ResyncsInitiated != 1 || sa.ResyncsCompleted != 1 {
		t.Errorf("resyncs initiated=%d completed=%d, want 1/1", sa.ResyncsInitiated, sa.ResyncsCompleted)
	}
	if sb.ResyncsServed != 1 {
		t.Errorf("served=%d, want 1", sb.ResyncsServed)
	}
	if sa.ResyncRetries == 0 {
		t.Error("the handshake crossed a 50k-cycle outage without retrying")
	}
	if sa.BlocksPoisoned != 0 || sb.BlocksPoisoned != 0 {
		t.Errorf("poisoned %d/%d blocks; an outage must resync, not poison", sa.BlocksPoisoned, sb.BlocksPoisoned)
	}
	if len(p.cb.data) != 4 {
		t.Errorf("delivered=%d, want all 4 blocks after recovery", len(p.cb.data))
	}
	if sb.BatchesVerified == 0 || sb.DecryptFailed != 0 {
		t.Errorf("verified=%d decryptFailed=%d after recovery", sb.BatchesVerified, sb.DecryptFailed)
	}
	assertDrained(t, p.a, p.b)
	if n := p.fabric.Outstanding(); n != 0 {
		t.Errorf("%d pooled messages leaked across the outage recovery", n)
	}
}

// Handshake retries are unbounded: a peer that stays unreachable far past
// the data path's retry budget still ends with a completed resync and zero
// poisoned blocks once it answers.
func TestResyncRetriesOutliveRetransBudget(t *testing.T) {
	p := newPair(t, resyncConfig()) // RetransMaxRetries = 4
	const suppressed = 6
	swallowedResyncs, passData := 0, false
	p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
		switch msg.Kind {
		case interconnect.KindDataResp:
			return !passData
		case interconnect.KindSecResync:
			if swallowedResyncs < suppressed {
				swallowedResyncs++
				return true
			}
			passData = true
		}
		return false
	}})

	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 4; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa := p.a.Stats()
	if swallowedResyncs != suppressed {
		t.Fatalf("suppressed %d handshakes, want %d", swallowedResyncs, suppressed)
	}
	if sa.ResyncRetries < suppressed {
		t.Errorf("retries=%d, want >= %d (retries must outlive RetransMaxRetries=%d)",
			sa.ResyncRetries, suppressed, p.a.cfg.RetransMaxRetries)
	}
	if sa.ResyncsCompleted != 1 {
		t.Errorf("completed=%d, want 1", sa.ResyncsCompleted)
	}
	if sa.BlocksPoisoned != 0 {
		t.Errorf("poisoned=%d; the handshake path must never poison", sa.BlocksPoisoned)
	}
	if len(p.cb.data) != 4 {
		t.Errorf("delivered=%d, want 4", len(p.cb.data))
	}
	assertDrained(t, p.a, p.b)
}

// A duplicated RESYNC request is re-acknowledged but installed only once,
// and the duplicate ACK coming back is recognized as stale.
func TestDuplicateResyncRequestIdempotent(t *testing.T) {
	p := newPair(t, resyncConfig())
	passData := false
	p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
		switch msg.Kind {
		case interconnect.KindDataResp:
			return !passData
		case interconnect.KindSecResync:
			passData = true
			// Deliver an extra copy ahead of the original.
			dup := msg.Clone()
			p.b.Deliver(p.engine.Now(), dup)
		}
		return false
	}})

	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 4; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sb := p.a.Stats(), p.b.Stats()
	if sb.ResyncsServed != 1 {
		t.Errorf("served=%d, want 1 (duplicate must not reinstall)", sb.ResyncsServed)
	}
	if sa.ResyncsCompleted != 1 {
		t.Errorf("completed=%d, want 1", sa.ResyncsCompleted)
	}
	if sa.StaleResyncs == 0 {
		t.Error("the duplicate ACK was not recognized as stale")
	}
	if len(p.cb.data) != 4 {
		t.Errorf("delivered=%d, want 4", len(p.cb.data))
	}
	assertDrained(t, p.a, p.b)
}

// Corrupted or structurally invalid handshake messages are dropped without
// effect: no panic, no counter install, just accounting.
func TestMalformedResyncDropped(t *testing.T) {
	p := newPair(t, resyncConfig())

	// Corrupted flag set: dropped before decode.
	msg := p.fabric.AcquireMessage()
	msg.Kind = interconnect.KindSecResync
	msg.Src, msg.Dst = 1, 2
	env := msg.AttachSec()
	buf := msg.CipherBuf()[:resyncFrameBytes]
	encodeResyncFrame(buf, resyncFrame{Type: frameResync, Seq: 1, Base: 100})
	env.Ciphertext = buf
	msg.Corrupted = true
	p.b.Deliver(0, msg)
	p.fabric.FreeMessage(msg)

	// Garbage ciphertext: fails decode.
	msg = p.fabric.AcquireMessage()
	msg.Kind = interconnect.KindSecResyncAck
	msg.Src, msg.Dst = 1, 2
	env = msg.AttachSec()
	env.Ciphertext = []byte("not a handshake frame")
	p.b.Deliver(0, msg)
	p.fabric.FreeMessage(msg)

	// No envelope at all.
	bare := &interconnect.Message{Kind: interconnect.KindSecResync, Src: 1, Dst: 2}
	p.b.Deliver(0, bare)

	if got := p.b.Stats().MalformedDropped; got != 3 {
		t.Errorf("malformedDropped=%d, want 3", got)
	}
	if p.b.Stats().ResyncsServed != 0 {
		t.Error("a malformed handshake was served")
	}
}

// Regression for the parked-batch flush-timer audit: when a NACK arrives
// for a batch the sender still holds open (the receiver's stale scan can
// outrun the sender's flush timeout), the retransmission must discard the
// open remainder and cancel its flush timer — no Batched_MsgMAC for the
// dead identity may escape later.
func TestNoBatchMACForSupersededOpenBatch(t *testing.T) {
	c := resyncConfig()
	c.BatchFlushTimeout = 10_000 // sender holds the partial batch open a long time
	c.StaleBatchTimeout = 1_500  // receiver gives up on it quickly
	p := newPair(t, c)

	// Two blocks of a 4-block batch: the batch stays open on the sender.
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < 2; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sb := p.a.Stats(), p.b.Stats()
	if sb.NACKsSent == 0 {
		t.Fatal("receiver never NACKed the stale batch; the scenario did not arm")
	}
	// Exactly one Batched_MsgMAC: the retransmitted unit's. The superseded
	// open batch must not flush one at its (later) timeout.
	if sa.BatchMACsSent != 1 {
		t.Errorf("batchMACs sent=%d, want 1 (stale flush escaped the park)", sa.BatchMACsSent)
	}
	if sb.BatchesVerified != 1 {
		t.Errorf("verified=%d, want 1", sb.BatchesVerified)
	}
	if len(p.cb.data) != 4 {
		// 2 lazy deliveries + 2 retransmitted copies.
		t.Errorf("deliveries=%d, want 4", len(p.cb.data))
	}
	assertDrained(t, p.a, p.b)
}

// Crossing the configured epoch span triggers exactly one drain-and-rotate
// rekey: the pair stalls, rotates to the aligned base, and every payload
// still arrives intact.
func TestRekeyRotatesEpochOnce(t *testing.T) {
	c := resyncConfig()
	c.RekeyEpoch = 16
	p := newPair(t, c)

	const blocks = 20
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		for i := 0; i < blocks; i++ {
			p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), false)
		}
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sb := p.a.Stats(), p.b.Stats()
	if sa.Rekeys != 1 {
		t.Fatalf("rekeys=%d, want exactly 1 (counters stay below the second boundary)", sa.Rekeys)
	}
	if sa.RekeyStallCycles == 0 {
		t.Error("a drain-and-rotate rekey reported zero stall cycles")
	}
	if sa.HeldSends == 0 {
		t.Error("no sends were held; the drain never blocked the stream")
	}
	if len(p.cb.data) != blocks {
		t.Errorf("delivered=%d, want %d (no loss across the rotation)", len(p.cb.data), blocks)
	}
	if sb.DecryptFailed != 0 || sa.BlocksPoisoned != 0 || sb.BlocksPoisoned != 0 {
		t.Errorf("rekey damaged the stream: decryptFailed=%d poisoned=%d/%d",
			sb.DecryptFailed, sa.BlocksPoisoned, sb.BlocksPoisoned)
	}
	// Payload integrity end to end: the first and last blocks decrypt to
	// what was sent (functional mode re-derives and verifies real MACs).
	if sb.BatchesVerified == 0 {
		t.Error("nothing verified after the rotation")
	}
	assertDrained(t, p.a, p.b)
}

// With resync disabled (threshold 0) the legacy poison-after-max-retries
// behaviour is preserved: an unreachable peer poisons instead of
// handshaking forever.
func TestThresholdZeroKeepsLegacyPoisoning(t *testing.T) {
	p := newPair(t, recoveryConfig()) // ResyncThreshold = 0
	p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
		return msg.Kind == interconnect.KindDataResp
	}})
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 1, 0x40, payload(1), false)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}
	sa := p.a.Stats()
	if sa.ResyncsInitiated != 0 {
		t.Errorf("resyncs=%d with threshold 0, want none", sa.ResyncsInitiated)
	}
	if sa.BlocksPoisoned != 1 {
		t.Errorf("poisoned=%d, want 1 (legacy give-up)", sa.BlocksPoisoned)
	}
}

// The endpoint's watchdog diagnosis names the stuck peer's handshake state.
func TestDiagReportsStuckHandshake(t *testing.T) {
	p := newPair(t, resyncConfig())
	p.fabric.ForceLinkOutage(1, 2, 0, sim.MaxCycle)
	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 1, 0x40, payload(1), false)
	}), nil)
	// Run long enough for the streak to trip and the handshake to start,
	// then stop: the link never returns.
	if _, err := p.engine.RunUntil(100_000); err != nil {
		t.Fatal(err)
	}
	if !p.a.Resyncing() {
		t.Fatal("endpoint is not mid-handshake; the scenario did not arm")
	}
	diag := p.a.Diag()
	if !bytes.Contains([]byte(diag), []byte(`"active":true`)) {
		t.Errorf("diagnosis %q does not show the live handshake", diag)
	}
}
