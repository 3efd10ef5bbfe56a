package secure

import (
	"testing"

	"secmgpu/internal/config"
	"secmgpu/internal/crypto"
	"secmgpu/internal/interconnect"
	"secmgpu/internal/otp"
	"secmgpu/internal/sim"
)

// interposer sits on one node's delivery path and lets tests drop or mutate
// selected messages deterministically (the fabric's own fault profile is
// randomized; protocol tests want exact control).
type interposer struct {
	inner interconnect.Deliverer
	// intercept returns true to swallow the message.
	intercept func(msg *interconnect.Message) bool
}

func (ip *interposer) Deliver(now sim.Cycle, msg *interconnect.Message) {
	if ip.intercept != nil && ip.intercept(msg) {
		return
	}
	ip.inner.Deliver(now, msg)
}

// poisonRecorder is a capture handler that also implements PoisonHandler.
type poisonRecorder struct {
	capture
	poisoned []uint64
}

func (p *poisonRecorder) HandlePoisoned(now sim.Cycle, dst interconnect.NodeID, kind interconnect.Kind, reqID uint64) {
	p.poisoned = append(p.poisoned, reqID)
}

// recoveryConfig is secureConfig with recovery timers short enough for a
// test to drive: a 3,000-cycle ACK timeout, four retries, and a
// 1,500-cycle stale-batch timeout.
func recoveryConfig() config.Config {
	c := secureConfig()
	c.RetransTimeout = 3000
	c.RetransMaxRetries = 4
	c.StaleBatchTimeout = 1500
	return c
}

// assertDrained checks the invariant every recovery run must end in: no
// un-resolved sender units, no pending-ACK debt, no half-filled batches.
func assertDrained(t *testing.T, eps ...*Endpoint) {
	t.Helper()
	for _, ep := range eps {
		if n := ep.PendingACK(); n != 0 {
			t.Errorf("pendingACK=%d after drain, want 0", n)
		}
		if n := ep.OpenUnits(); n != 0 {
			t.Errorf("openUnits=%d after drain, want 0", n)
		}
		if n := ep.FillingBatches(); n != 0 {
			t.Errorf("fillingBatches=%d after drain, want 0", n)
		}
	}
}

// A dropped block leaves its batch with a hole; the receiver's stale-batch
// scan NACKs it and the sender retransmits the whole unit under a fresh
// batch ID and fresh counters, after which it verifies.
func TestDroppedBlockNACKedAndRetransmitted(t *testing.T) {
	p := newPair(t, recoveryConfig())
	dropped := false
	p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
		if msg.Kind == interconnect.KindDataResp && !dropped {
			dropped = true
			return true
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

	if !dropped {
		t.Fatal("interposer never dropped a block")
	}
	sa, sb := p.a.Stats(), p.b.Stats()
	if sb.NACKsSent == 0 {
		t.Error("receiver never NACKed the incomplete batch")
	}
	if sa.NACKsReceived == 0 {
		t.Error("sender never received the NACK")
	}
	if sa.Retransmits != 4 {
		t.Errorf("retransmits=%d, want 4 (the whole unit is re-sent)", sa.Retransmits)
	}
	if sb.Quarantined != 3 {
		t.Errorf("quarantined=%d, want 3 (delivered blocks of the abandoned batch)", sb.Quarantined)
	}
	if sb.BatchesVerified != 1 {
		t.Errorf("verified=%d, want 1 (the retransmitted copy)", sb.BatchesVerified)
	}
	// 3 original deliveries (lazy verification) + 4 retransmitted.
	if len(p.cb.data) != 7 {
		t.Errorf("deliveries=%d, want 7", len(p.cb.data))
	}
	assertDrained(t, p.a, p.b)
}

// A lost ACK does not lose the batch: the sender's per-unit timer expires
// and retransmits, and the second ACK resolves the unit.
func TestLostACKRetransmitsOnTimer(t *testing.T) {
	p := newPair(t, recoveryConfig())
	dropped := false
	p.fabric.Register(1, &interposer{inner: p.a, intercept: func(msg *interconnect.Message) bool {
		if msg.Kind == interconnect.KindSecACK && !dropped {
			dropped = true
			return true
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
	if !dropped {
		t.Fatal("no ACK was dropped")
	}
	if sa.AckTimeouts == 0 {
		t.Error("ACK loss never tripped the unit timer")
	}
	if sa.Retransmits != 4 {
		t.Errorf("retransmits=%d, want 4", sa.Retransmits)
	}
	if sb.BatchesVerified != 2 {
		t.Errorf("verified=%d, want 2 (original and retransmitted copy)", sb.BatchesVerified)
	}
	assertDrained(t, p.a, p.b)
}

// When every copy of a block is lost, the sender gives up after the retry
// budget, repays the pending-ACK debt, and reports the poisoned blocks to
// the node logic; nothing hangs.
func TestPersistentLossPoisons(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Batching = false
	cfg.RetransMaxRetries = 2

	e := sim.NewEngine()
	f := interconnect.NewFabric(e, cfg)
	pr := &poisonRecorder{}
	a := New(e, f, 1, &cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), pr)
	b := New(e, f, 2, &cfg, true, otp.NewPrivate(2, 4, crypto.NewEngine(40)), &capture{})
	newUnsecure(e, f, interconnect.CPUNode, &capture{})
	f.Register(2, &interposer{inner: b, intercept: func(msg *interconnect.Message) bool {
		return msg.Kind == interconnect.KindDataResp
	}})

	e.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		a.SendData(2, interconnect.KindDataResp, 77, 0x40, payload(1), false)
	}), nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	sa := a.Stats()
	if sa.Retransmits != 2 {
		t.Errorf("retransmits=%d, want 2 (the retry budget)", sa.Retransmits)
	}
	if sa.AckTimeouts != 3 {
		t.Errorf("ackTimeouts=%d, want 3 (initial send + 2 retries)", sa.AckTimeouts)
	}
	if sa.BatchesPoisoned != 1 || sa.BlocksPoisoned != 1 {
		t.Errorf("poisoned batches=%d blocks=%d, want 1/1", sa.BatchesPoisoned, sa.BlocksPoisoned)
	}
	if len(pr.poisoned) != 1 || pr.poisoned[0] != 77 {
		t.Errorf("poison handler saw %v, want [77]", pr.poisoned)
	}
	assertDrained(t, a, b)
}

// A corrupted conventional block is never delivered to the node: the
// receiver NACKs it and only the clean retransmitted copy goes up.
func TestCorruptedConventionalBlockRecovered(t *testing.T) {
	cfg := recoveryConfig()
	cfg.Batching = false
	p := newPair(t, cfg)
	corrupted := false
	p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
		if msg.Kind == interconnect.KindDataResp && !corrupted {
			corrupted = true
			msg.Corrupted = true
			if msg.Sec != nil && len(msg.Sec.Ciphertext) > 0 {
				msg.Sec.Ciphertext = append([]byte(nil), msg.Sec.Ciphertext...)
				msg.Sec.Ciphertext[0] ^= 0x40
			}
		}
		return false
	}})

	p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
		p.a.SendData(2, interconnect.KindDataResp, 5, 0x40, payload(9), false)
	}), nil)
	if _, err := p.engine.Run(); err != nil {
		t.Fatal(err)
	}

	sa, sb := p.a.Stats(), p.b.Stats()
	if !corrupted {
		t.Fatal("nothing was corrupted")
	}
	if sb.DecryptFailed == 0 {
		t.Error("corruption went undetected")
	}
	if sa.NACKsReceived == 0 || sa.Retransmits != 1 {
		t.Errorf("nacks=%d retransmits=%d, want >=1/1", sa.NACKsReceived, sa.Retransmits)
	}
	if len(p.cb.data) != 1 {
		t.Errorf("deliveries=%d, want exactly 1 (the clean copy)", len(p.cb.data))
	}
	assertDrained(t, p.a, p.b)
}

// A malformed Batched_MsgMAC — no envelope at all, or one naming a batch
// class the endpoint does not run — must be dropped and counted, never
// dereferenced (an adversary cannot panic a node).
func TestMalformedBatchMACDropped(t *testing.T) {
	p := newPair(t, recoveryConfig())
	p.b.Deliver(0, &interconnect.Message{
		Kind: interconnect.KindBatchMAC, Category: interconnect.CatBatchMAC, Src: 1, Dst: 2,
	})
	p.b.Deliver(0, &interconnect.Message{
		Kind: interconnect.KindBatchMAC, Category: interconnect.CatBatchMAC, Src: 1, Dst: 2,
		Sec: &interconnect.SecEnvelope{SenderID: 1, BatchClass: 99},
	})
	if got := p.b.Stats().MalformedDropped; got != 2 {
		t.Errorf("malformedDropped=%d, want 2", got)
	}
}

// TestRetransmitSizedLikeOriginal checks that a re-sent block carries the
// same metadata on the wire as its first send, for a conventional and a
// batched unit: MsgCTR, MsgMAC and sender ID per conventional block; MsgCTR
// and sender ID per batched block, plus the batch-length byte on its first
// block and the length on its last; memory-protection metadata on blocks
// homed in host DRAM. Every first send of the unit is dropped, so each
// block is seen once as sent first and once as re-sent.
func TestRetransmitSizedLikeOriginal(t *testing.T) {
	for _, batching := range []bool{false, true} {
		cfg := recoveryConfig() // MetadataTraffic and CPUMemProtection on
		cfg.Batching = batching
		p := newPair(t, cfg)
		var sent []*interconnect.Message
		firstSend := map[uint64]*interconnect.Message{}
		p.fabric.Register(2, &interposer{inner: p.b, intercept: func(msg *interconnect.Message) bool {
			if msg.Kind != interconnect.KindDataResp {
				return false
			}
			sent = append(sent, msg.Clone())
			if firstSend[msg.ReqID] == nil {
				firstSend[msg.ReqID] = sent[len(sent)-1]
				return true
			}
			return false
		}})
		n := cfg.BatchSize
		p.engine.Schedule(0, sim.HandlerFunc(func(sim.Event) {
			for i := 0; i < n; i++ {
				p.a.SendData(2, interconnect.KindDataResp, uint64(i), uint64(i*64), payload(byte(i)), i%2 == 0)
			}
		}), nil)
		if _, err := p.engine.Run(); err != nil {
			t.Fatal(err)
		}
		if len(sent) != 2*n || p.a.Stats().Retransmits != uint64(n) {
			t.Fatalf("batching=%t: %d data messages and %d retransmits, want %d and %d",
				batching, len(sent), p.a.Stats().Retransmits, 2*n, n)
		}
		for _, msg := range sent {
			blk := int(msg.ReqID)
			orig := firstSend[msg.ReqID]
			want := InlineMetaConv
			wantLen := 0
			if batching {
				if msg.Sec.BatchIndex != blk {
					t.Errorf("batching=%t: block %d travels at batch index %d", batching, blk, msg.Sec.BatchIndex)
				}
				want = InlineMetaBatch
				if blk == 0 {
					want += BatchLenByte
				}
				if blk == n-1 {
					wantLen = n
				}
			}
			wantMemProt := 0
			if blk%2 == 0 {
				wantMemProt = MemProtBytes
			}
			copyOf := "first send"
			if msg != orig {
				copyOf = "re-send"
			}
			if msg.MetaBytes != want || msg.MemProtBytes != wantMemProt || msg.Sec.BatchLen != wantLen {
				t.Errorf("batching=%t: %s of block %d carries meta=%d memprot=%d batchLen=%d, want %d/%d/%d",
					batching, copyOf, blk, msg.MetaBytes, msg.MemProtBytes, msg.Sec.BatchLen,
					want, wantMemProt, wantLen)
			}
			if msg.Size() != orig.Size() {
				t.Errorf("batching=%t: block %d re-sent in %dB, first sent in %dB",
					batching, blk, msg.Size(), orig.Size())
			}
		}
		assertDrained(t, p.a, p.b)
	}
}
