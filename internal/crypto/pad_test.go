package crypto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"secmgpu/internal/sim"
)

var testKey = []byte("0123456789abcdef")

func newGen(t *testing.T) *PadGenerator {
	t.Helper()
	g, err := NewPadGenerator(testKey)
	if err != nil {
		t.Fatalf("NewPadGenerator: %v", err)
	}
	return g
}

func TestNewPadGeneratorRejectsBadKey(t *testing.T) {
	if _, err := NewPadGenerator([]byte("short")); err == nil {
		t.Error("5-byte key accepted")
	}
	if _, err := NewPadGenerator(make([]byte, 32)); err == nil {
		t.Error("32-byte key accepted (session keys are 16B)")
	}
}

func TestPadDeterminism(t *testing.T) {
	g1, g2 := newGen(t), newGen(t)
	p1 := g1.Generate(42, 1, 2)
	p2 := g2.Generate(42, 1, 2)
	if p1 != p2 {
		t.Error("same (key,ctr,sender,receiver) produced different pads; sender/receiver could never sync")
	}
}

func TestPadUniqueness(t *testing.T) {
	g := newGen(t)
	base := g.Generate(42, 1, 2)
	variants := map[string]Pad{
		"different counter":  g.Generate(43, 1, 2),
		"different sender":   g.Generate(42, 3, 2),
		"different receiver": g.Generate(42, 1, 3),
		"swapped ids":        g.Generate(42, 2, 1),
	}
	for name, p := range variants {
		if p == base {
			t.Errorf("%s produced an identical pad: one-time property violated", name)
		}
	}
}

func TestEncryptRoundTrip(t *testing.T) {
	g := newGen(t)
	pad := g.Generate(7, 1, 2)
	plain := make([]byte, BlockBytes)
	for i := range plain {
		plain[i] = byte(i * 3)
	}
	ct := make([]byte, BlockBytes)
	Encrypt(ct, plain, &pad)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := make([]byte, BlockBytes)
	Encrypt(back, ct, &pad)
	if !bytes.Equal(back, plain) {
		t.Fatal("decrypt(encrypt(p)) != p")
	}
}

func TestEncryptSizePanics(t *testing.T) {
	g := newGen(t)
	pad := g.Generate(1, 1, 2)
	defer func() {
		if recover() == nil {
			t.Error("wrong-size block did not panic")
		}
	}()
	Encrypt(make([]byte, 32), make([]byte, 32), &pad)
}

func TestMACDetectsTampering(t *testing.T) {
	g := newGen(t)
	pad := g.Generate(9, 2, 3)
	ct := make([]byte, BlockBytes)
	for i := range ct {
		ct[i] = byte(i)
	}
	mac := g.MAC(ct, &pad)
	for bit := 0; bit < 8; bit++ {
		tampered := make([]byte, BlockBytes)
		copy(tampered, ct)
		tampered[bit*7%BlockBytes] ^= 1 << uint(bit)
		if g.MAC(tampered, &pad) == mac {
			t.Errorf("bit flip %d not detected by MAC", bit)
		}
	}
}

func TestMACDetectsPadReplay(t *testing.T) {
	// The same ciphertext under a different counter's pad must MAC
	// differently, otherwise a replayed message would verify.
	g := newGen(t)
	ct := make([]byte, BlockBytes)
	padA := g.Generate(10, 1, 2)
	padB := g.Generate(11, 1, 2)
	if g.MAC(ct, &padA) == g.MAC(ct, &padB) {
		t.Error("MAC identical across counters: replay would pass verification")
	}
}

// Property: roundtrip holds and MACs agree between two independently keyed
// generator instances (sender and receiver) for arbitrary payloads.
func TestSenderReceiverAgreementProperty(t *testing.T) {
	sender := newGen(t)
	receiver := newGen(t)
	prop := func(ctr uint64, s, r uint16, payload [BlockBytes]byte) bool {
		if s == r {
			r++
		}
		sp := sender.Generate(ctr, s, r)
		ct := make([]byte, BlockBytes)
		Encrypt(ct, payload[:], &sp)
		mac := sender.MAC(ct, &sp)

		rp := receiver.Generate(ctr, s, r)
		if rp != sp {
			return false
		}
		plain := make([]byte, BlockBytes)
		Encrypt(plain, ct, &rp)
		return bytes.Equal(plain, payload[:]) && receiver.MAC(ct, &rp) == mac
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// gfMul must satisfy field axioms we rely on; spot-check commutativity and
// the identity element (x^0 = MSB-first 0x80...).
func TestGFMulProperties(t *testing.T) {
	one := fieldElement{hi: 1 << 63}
	a := fieldElement{hi: 0x0123456789abcdef, lo: 0xfedcba9876543210}
	b := fieldElement{hi: 0xdeadbeefcafef00d, lo: 0x0ddba11decafbadd}
	if gfMul(a, one) != a {
		t.Error("a * 1 != a")
	}
	if gfMul(a, b) != gfMul(b, a) {
		t.Error("multiplication not commutative")
	}
	c := fieldElement{hi: 0x1111222233334444, lo: 0x5555666677778888}
	left := gfMul(a, gfAdd(b, c))
	right := gfAdd(gfMul(a, b), gfMul(a, c))
	if left != right {
		t.Error("multiplication not distributive over addition")
	}
}

func TestEngineHidesLatencyWhenIdle(t *testing.T) {
	e := NewEngine(40)
	if ready := e.Issue(100); ready != 140 {
		t.Errorf("ready=%d, want 140", ready)
	}
}

func TestEnginePipelinesOnePerCycle(t *testing.T) {
	e := NewEngineLanes(40, 1)
	// Three issues in the same cycle: a 1-lane pipeline accepts one per
	// cycle.
	r1 := e.Issue(0)
	r2 := e.Issue(0)
	r3 := e.Issue(0)
	if r1 != 40 || r2 != 41 || r3 != 42 {
		t.Errorf("ready cycles = %d,%d,%d; want 40,41,42", r1, r2, r3)
	}
	if e.Issued() != 3 {
		t.Errorf("issued=%d, want 3", e.Issued())
	}
}

func TestEngineLanes(t *testing.T) {
	e := NewEngineLanes(40, 2)
	var readies []sim.Cycle
	for i := 0; i < 5; i++ {
		readies = append(readies, e.Issue(0))
	}
	want := []sim.Cycle{40, 40, 41, 41, 42}
	for i := range want {
		if readies[i] != want[i] {
			t.Fatalf("readies=%v, want %v (2 lanes)", readies, want)
		}
	}
}

func TestEngineLaneValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero lanes did not panic")
		}
	}()
	NewEngineLanes(40, 0)
}

func TestEngineIssuePortFreesUp(t *testing.T) {
	e := NewEngineLanes(40, 1)
	e.Issue(0)
	if ready := e.Issue(10); ready != 50 {
		t.Errorf("ready=%d, want 50 (port free again at cycle 10)", ready)
	}
}

func TestEngineZeroLatencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero latency did not panic")
		}
	}()
	NewEngine(0)
}

func TestEngineFirstIssueAtCycleZero(t *testing.T) {
	e := NewEngine(40)
	if ready := e.Issue(0); ready != 40 {
		t.Errorf("first issue at cycle 0 ready=%d, want 40", ready)
	}
	// Regression guard: the zero-value lastIssue must not make cycle-0
	// issues queue behind a phantom issue.
	e2 := NewEngineLanes(40, 1)
	var starts []sim.Cycle
	for i := 0; i < 2; i++ {
		starts = append(starts, e2.Issue(0))
	}
	if starts[0] != 40 || starts[1] != 41 {
		t.Errorf("starts=%v, want [40 41]", starts)
	}
}

// Sinks keep the benchmarked calls from being optimised away.
var (
	padSink    Pad
	digestSink [16]byte
)

// BenchmarkPadGenerate measures one pad derivation: five AES block
// encryptions (the four encryption lanes and the authentication lane).
func BenchmarkPadGenerate(b *testing.B) {
	g, err := NewPadGenerator(testKey)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		padSink = g.Generate(uint64(i), 1, 2)
	}
}

// BenchmarkBatchDigest measures the Batched_MsgMAC fold (Formula 5): the
// keyed GHASH digest over the concatenated per-block MsgMACs of one
// batch of 16 blocks, the default batch size.
func BenchmarkBatchDigest(b *testing.B) {
	g, err := NewPadGenerator(testKey)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]byte, 16*MACBytes)
	for i := range batch {
		batch[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = g.Digest(batch)
	}
}
