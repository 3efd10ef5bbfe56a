package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"secmgpu/internal/crypto"
)

func newGen(t *testing.T) *crypto.PadGenerator {
	t.Helper()
	g, err := crypto.NewPadGenerator([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatalf("NewPadGenerator: %v", err)
	}
	return g
}

func mac(i int) [crypto.MACBytes]byte {
	var m [crypto.MACBytes]byte
	m[0] = byte(i)
	m[7] = byte(i * 31)
	return m
}

func TestBatcherClosesAtN(t *testing.T) {
	b := NewBatcher(4, nil)
	for i := 0; i < 3; i++ {
		tag, _, closed := b.Add(mac(i))
		if closed {
			t.Fatalf("batch closed early at block %d", i)
		}
		if tag.Index != i || tag.BatchID != 0 || tag.First != (i == 0) {
			t.Fatalf("tag %d = %+v", i, tag)
		}
	}
	tag, closed, ok := b.Add(mac(3))
	if !ok {
		t.Fatal("batch did not close at n=4")
	}
	if tag.Index != 3 || closed.Len != 4 || closed.BatchID != 0 {
		t.Fatalf("tag=%+v closed=%+v", tag, closed)
	}
	// Next block opens batch 1.
	tag, _, _ = b.Add(mac(4))
	if tag.BatchID != 1 || !tag.First {
		t.Fatalf("next tag=%+v, want start of batch 1", tag)
	}
}

func TestBatcherFlushPartial(t *testing.T) {
	b := NewBatcher(16, nil)
	if _, ok := b.Flush(); ok {
		t.Fatal("flush of empty batcher returned a batch")
	}
	b.Add(mac(0))
	b.Add(mac(1))
	if b.OpenCount() != 2 {
		t.Fatalf("open count=%d, want 2", b.OpenCount())
	}
	closed, ok := b.Flush()
	if !ok || closed.Len != 2 {
		t.Fatalf("flushed=%+v, want partial batch of 2", closed)
	}
	if b.OpenCount() != 0 {
		t.Fatalf("open count after flush=%d", b.OpenCount())
	}
}

// TestBatcherTimeout pins what the endpoint's flush timer relies on: the
// timer is armed for the open batch's ID, and OpenID names that batch
// only while it is open, so a timer that outlives its batch cannot flush
// a successor.
func TestBatcherTimeout(t *testing.T) {
	b := NewBatcher(2, nil)
	if _, open := b.OpenID(); open {
		t.Fatal("fresh batcher reports an open batch")
	}
	tag, _, _ := b.Add(mac(0))
	armed := tag.BatchID
	if id, open := b.OpenID(); !open || id != armed {
		t.Fatalf("OpenID = %d, %v; want the armed batch %d open", id, open, armed)
	}
	// The batch closes full; its successor opens under a new ID.
	if _, _, closed := b.Add(mac(1)); !closed {
		t.Fatal("batch did not close at n=2")
	}
	if _, open := b.OpenID(); open {
		t.Fatal("closed batch still reported open")
	}
	b.Add(mac(2))
	if id, open := b.OpenID(); !open || id == armed {
		t.Fatalf("OpenID = %d, %v; want a successor distinct from %d", id, open, armed)
	}
	// A timeout flush closes the partial successor.
	if cb, ok := b.Flush(); !ok || cb.Len != 1 {
		t.Fatalf("flush = %+v, %v; want the one-block successor", cb, ok)
	}
}

func TestBatchMACRoundTrip(t *testing.T) {
	gen := newGen(t)
	b := NewBatcher(3, gen)
	s := NewMACStore(64, 3, gen)

	var closed ClosedBatch
	var tags []BlockTag
	for i := 0; i < 3; i++ {
		tag, c, ok := b.Add(mac(i))
		tags = append(tags, tag)
		if ok {
			closed = c
		}
	}
	if closed.Len == 0 {
		t.Fatal("no closed batch")
	}
	// Blocks arrive in order, then the batch MAC.
	for i, tag := range tags {
		if res, done := s.OnBlock(100, tag, mac(i)); done {
			t.Fatalf("verification fired before batch MAC arrived: %+v", res)
		}
	}
	res, done := s.OnBatchMAC(100, closed)
	if !done || !res.OK || res.Len != 3 {
		t.Fatalf("verification=%+v, want OK over 3 blocks", res)
	}
	if s.Verified() != 1 || s.Failed() != 0 {
		t.Fatalf("verified=%d failed=%d", s.Verified(), s.Failed())
	}
}

func TestBatchMACArrivesBeforeLastBlock(t *testing.T) {
	gen := newGen(t)
	b := NewBatcher(3, gen)
	s := NewMACStore(64, 3, gen)
	var closed ClosedBatch
	var tags []BlockTag
	for i := 0; i < 3; i++ {
		tag, c, ok := b.Add(mac(i))
		tags = append(tags, tag)
		if ok {
			closed = c
		}
	}
	s.OnBlock(100, tags[0], mac(0))
	if res, done := s.OnBatchMAC(100, closed); done {
		t.Fatalf("verified with only 1/3 blocks: %+v", res)
	}
	s.OnBlock(100, tags[1], mac(1))
	res, done := s.OnBlock(100, tags[2], mac(2))
	if !done || !res.OK {
		t.Fatalf("final block did not trigger verification: %+v", res)
	}
}

func TestBatchMACDetectsTampering(t *testing.T) {
	gen := newGen(t)
	b := NewBatcher(2, gen)
	s := NewMACStore(64, 2, gen)
	tag0, _, _ := b.Add(mac(0))
	tag1, closed, _ := b.Add(mac(1))
	s.OnBlock(100, tag0, mac(0))
	s.OnBlock(100, tag1, mac(99)) // receiver computes a different MAC for block 1
	res, done := s.OnBatchMAC(100, closed)
	if !done || res.OK {
		t.Fatalf("tampered batch verified: %+v", res)
	}
	if s.Failed() != 1 {
		t.Fatalf("failed=%d, want 1", s.Failed())
	}
}

func TestMACStoreCapacityDrops(t *testing.T) {
	s := NewMACStore(2, 4, nil)
	for i := 0; i < 4; i++ {
		s.OnBlock(100, BlockTag{BatchID: 0, Index: i}, mac(i))
	}
	if s.Dropped() == 0 {
		t.Error("overflowing the MsgMAC storage did not record drops")
	}
}

func TestMACStoreExpireAbandonsStale(t *testing.T) {
	gen := newGen(t)
	s := NewMACStore(64, 16, gen)
	s.OnBlock(100, BlockTag{BatchID: 0, Index: 0}, mac(0))
	// Batch 1 opens later and fills concurrently; the store tolerates both.
	s.OnBlock(400, BlockTag{BatchID: 1, Index: 0, First: true}, mac(1))
	if s.Filling() != 2 {
		t.Fatalf("filling=%d, want 2 concurrent batches", s.Filling())
	}
	ex := s.Expire(500, 200)
	if len(ex) != 1 || ex[0].BatchID != 0 || ex[0].Received != 1 {
		t.Fatalf("expired=%+v, want only batch 0 with 1 block", ex)
	}
	if s.Dropped() != 1 || s.Quarantined() != 1 || s.Filling() != 1 {
		t.Errorf("dropped=%d quarantined=%d filling=%d, want 1/1/1",
			s.Dropped(), s.Quarantined(), s.Filling())
	}
}

func TestMACStoreToleratesHolesAndDuplicates(t *testing.T) {
	gen := newGen(t)
	b := NewBatcher(3, gen)
	s := NewMACStore(64, 3, gen)
	var closed ClosedBatch
	var tags []BlockTag
	for i := 0; i < 3; i++ {
		tag, c, ok := b.Add(mac(i))
		tags = append(tags, tag)
		if ok {
			closed = c
		}
	}
	// Block 1 is lost; block 2 lands first, block 0 arrives twice.
	s.OnBlock(100, tags[2], mac(2))
	s.OnBlock(100, tags[0], mac(0))
	s.OnBlock(100, tags[0], mac(0))
	if res, done := s.OnBatchMAC(100, closed); done {
		t.Fatalf("verified with a hole at index 1: %+v", res)
	}
	// The retransmitted middle block completes the batch.
	res, done := s.OnBlock(100, tags[1], mac(1))
	if !done || !res.OK || res.Len != 3 {
		t.Fatalf("hole fill did not verify: %+v", res)
	}
}

func TestBatcherValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero batch size did not panic")
		}
	}()
	NewBatcher(0, nil)
}

func TestMACStoreValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewMACStore(0, 16, nil)
}

// Property: for any sequence of blocks split into batches of any size and
// any flush pattern, every closed batch verifies at an in-sync receiver and
// batch IDs increase by one.
func TestBatchingEndToEndProperty(t *testing.T) {
	gen := newGen(t)
	prop := func(blocks []byte, nRaw, flushEvery uint8) bool {
		n := int(nRaw%16) + 1
		fe := int(flushEvery%7) + 3
		b := NewBatcher(n, gen)
		s := NewMACStore(64, n, gen)
		verified := 0
		wantVerified := 0
		var lastID uint64
		first := true
		handleClosed := func(cb ClosedBatch, closed bool) bool {
			if !closed {
				return true
			}
			wantVerified++
			if !first && cb.BatchID != lastID+1 {
				return false
			}
			first = false
			lastID = cb.BatchID
			res, done := s.OnBatchMAC(0, cb)
			if !done || !res.OK {
				return false
			}
			verified++
			return true
		}
		for i, blk := range blocks {
			m := mac(int(blk))
			tag, cb, closed := b.Add(m)
			s.OnBlock(0, tag, m)
			if !handleClosed(cb, closed) {
				return false
			}
			if i%fe == fe-1 {
				if !handleClosed(b.Flush()) {
					return false
				}
			}
		}
		if !handleClosed(b.Flush()) {
			return false
		}
		return verified == wantVerified && s.Failed() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
