package core

import (
	"encoding/binary"
	"slices"
	"sort"

	"secmgpu/internal/crypto"
	"secmgpu/internal/sim"
)

// BlockTag places one data block within a batch (Section IV-C). It is the
// information the sender attaches to each block so the receiver can slot
// the block's MsgMAC into its MsgMAC storage.
type BlockTag struct {
	// BatchID identifies the batch within the (source, destination) pair.
	BatchID uint64
	// Index is the block's position inside the batch.
	Index int
	// First reports whether this block opens the batch; the paper adds a
	// 1B batch-length field to the first request of each batch.
	First bool
}

// ClosedBatch describes a batch whose Batched_MsgMAC must now be sent.
type ClosedBatch struct {
	BatchID uint64
	// Len is the number of blocks covered (n, or fewer on a timeout or
	// explicit flush).
	Len int
	// MAC is the Batched_MsgMAC over the concatenated per-block MsgMACs
	// (Formula 5), truncated to the wire MAC size.
	MAC [crypto.MACBytes]byte
}

// Batcher is the sender-side batching controller for one destination. Data
// blocks join the open batch in order; when n blocks have joined (or a
// Flush on the endpoint's flush timer or at a page-migration boundary
// forces it) the batch closes and a single Batched_MsgMAC + single ACK
// replace the per-block metadata.
type Batcher struct {
	n   int
	gen *crypto.PadGenerator

	nextID uint64
	open   bool
	id     uint64
	count  int
	macs   []byte // concatenated per-block MsgMACs
}

// NewBatcher creates a sender-side batcher with batch size n. gen may be
// nil for timing-only simulation, in which case Batched_MsgMACs are zero.
func NewBatcher(n int, gen *crypto.PadGenerator) *Batcher {
	b := &Batcher{}
	b.Reset(n, gen)
	return b
}

// Reset returns b to the state NewBatcher(n, gen) builds, keeping its MAC
// buffer when large enough.
func (b *Batcher) Reset(n int, gen *crypto.PadGenerator) {
	if n < 1 {
		panic("core: batch size must be positive")
	}
	macs := b.macs[:0]
	if cap(macs) < n*crypto.MACBytes {
		macs = make([]byte, 0, n*crypto.MACBytes)
	}
	*b = Batcher{n: n, gen: gen, macs: macs}
}

// Add appends one block's MsgMAC to the open batch (opening one if needed)
// and returns the block's tag plus, when this block completes the batch
// (closed reports it), the closed batch to transmit.
func (b *Batcher) Add(mac [crypto.MACBytes]byte) (tag BlockTag, cb ClosedBatch, closed bool) {
	if !b.open {
		b.open = true
		b.id = b.nextID
		b.nextID++
		b.count = 0
		b.macs = b.macs[:0]
	}
	tag = BlockTag{BatchID: b.id, Index: b.count, First: b.count == 0}
	b.count++
	b.macs = append(b.macs, mac[:]...)
	if b.count == b.n {
		return tag, b.close(), true
	}
	return tag, ClosedBatch{}, false
}

// Flush closes the open batch if any, returning it; ok is false when no
// batch was open. Used on timeout and at page-migration boundaries.
func (b *Batcher) Flush() (cb ClosedBatch, ok bool) {
	if !b.open {
		return ClosedBatch{}, false
	}
	return b.close(), true
}

// OpenID returns the identity of the open batch, or ok=false when no batch
// is open. Timeout events use it to avoid flushing a successor batch.
func (b *Batcher) OpenID() (id uint64, ok bool) {
	return b.id, b.open
}

// OpenCount returns the blocks in the open batch (0 when none is open).
func (b *Batcher) OpenCount() int {
	if !b.open {
		return 0
	}
	return b.count
}

// AllocID reserves a fresh batch identity outside the open batch. The
// retransmission path uses it to re-send a lost batch under a new ID (and
// fresh counters), so the copy never collides with the receiver's state for
// the original.
func (b *Batcher) AllocID() uint64 {
	id := b.nextID
	b.nextID++
	return id
}

func (b *Batcher) close() ClosedBatch {
	b.open = false
	return ClosedBatch{BatchID: b.id, Len: b.count, MAC: BatchMAC(b.gen, b.macs)}
}

// BatchMAC computes the Batched_MsgMAC over concatenated per-block MsgMACs
// (Formula 5). With a nil generator it returns a length-tagged XOR fold of
// the input, so timing-only runs still detect both length mismatches and
// flipped per-block MACs (the fault profile flips a receiver-side MAC byte
// to model corruption without real ciphertext).
func BatchMAC(gen *crypto.PadGenerator, concatenated []byte) [crypto.MACBytes]byte {
	var out [crypto.MACBytes]byte
	if gen == nil {
		for i, b := range concatenated {
			out[i%crypto.MACBytes] ^= b
		}
		var ln [4]byte
		binary.BigEndian.PutUint32(ln[:], uint32(len(concatenated)))
		for i, b := range ln {
			out[4+i] ^= b
		}
		return out
	}
	digest := gen.Digest(concatenated)
	copy(out[:], digest[:crypto.MACBytes])
	return out
}

// MACStore is the receiver-side MsgMAC storage of Figure 20 for one source.
// On a perfect FIFO channel at most one batch fills at a time, but a lossy
// or adversarial fabric interleaves arbitrarily: blocks vanish (leaving
// index holes), a retransmitted batch overlaps the remains of its original,
// and a Batched_MsgMAC may arrive before, after, or instead of its blocks.
// The store therefore holds multiple index-addressed filling batches keyed
// by batch ID, and exposes an expiry scan so stale incomplete batches are
// reported (for NACKing) instead of hoarded. Batch IDs are one sender's
// sequence numbers, so the filling batches sit in an ID-indexed table
// whose slots keep their buffers from batch to batch.
type MACStore struct {
	capacity int
	batchLen int
	gen      *crypto.PadGenerator

	filling sim.IDTable[fillingBatch]
	used    int // MAC slots held across all filling batches

	verified    uint64
	failed      uint64
	dropped     uint64
	quarantined uint64
}

// fillingBatch is one partially received batch.
type fillingBatch struct {
	macs     []byte // index-addressed concatenated per-block MsgMACs
	have     []bool
	count    int  // distinct blocks stored
	overflow bool // a block found the store full; the batch cannot verify
	openedAt sim.Cycle
	// pending holds a Batched_MsgMAC that arrived ahead of its blocks,
	// when hasPending is set.
	pending    ClosedBatch
	hasPending bool
}

// reset starts a batch opened at now in b's slot, keeping its buffers:
// have is sized to the batch length and cleared, and macs only sized,
// since a MAC is read only where have is set.
func (b *fillingBatch) reset(now sim.Cycle, batchLen int) {
	have := slices.Grow(b.have[:0], batchLen)[:batchLen]
	clear(have)
	macs := slices.Grow(b.macs[:0], batchLen*crypto.MACBytes)[:batchLen*crypto.MACBytes]
	*b = fillingBatch{macs: macs, have: have, openedAt: now}
}

// completeFor reports whether every block index in [0, n) is stored.
func (b *fillingBatch) completeFor(n int) bool {
	if b.count < n || len(b.have) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if !b.have[i] {
			return false
		}
	}
	return true
}

// VerifyResult reports a completed batch verification.
type VerifyResult struct {
	BatchID uint64
	Len     int
	OK      bool
}

// ExpiredBatch reports one incomplete batch abandoned by Expire.
type ExpiredBatch struct {
	BatchID uint64
	// Received is how many blocks had arrived (and, under lazy
	// verification, were already consumed unverified).
	Received int
}

// maxParkedFilling caps the slots of a filling-batch table that Reset
// keeps. A healthy channel fills one or two batches at a time; a lossy
// one keeps stale batches until the expiry scan, which stretches the
// span of live batch IDs (to 32 in a secbench -exp all pass at scale
// 0.01). Each slot keeps its batch's buffers, so larger tables go to the
// collector.
const maxParkedFilling = 8

// NewMACStore creates a receiver-side store holding up to capacity per-block
// MACs (the paper's max(16,64) x 8B per peer) for batches of batchLen
// blocks.
func NewMACStore(capacity, batchLen int, gen *crypto.PadGenerator) *MACStore {
	s := &MACStore{}
	s.Reset(capacity, batchLen, gen)
	return s
}

// Reset returns s to the state NewMACStore(capacity, batchLen, gen)
// builds, keeping its emptied batch table unless it grew past
// maxParkedFilling slots.
func (s *MACStore) Reset(capacity, batchLen int, gen *crypto.PadGenerator) {
	if capacity < 1 || batchLen < 1 {
		panic("core: MAC store capacity and batch length must be positive")
	}
	filling := s.filling
	if filling.Slots() > maxParkedFilling {
		filling = sim.IDTable[fillingBatch]{}
	}
	filling.Reset()
	*s = MACStore{capacity: capacity, batchLen: batchLen, gen: gen, filling: filling}
}

// batch returns the filling batch for id, opening it at now if needed.
func (s *MACStore) batch(now sim.Cycle, id uint64) *fillingBatch {
	b, added := s.filling.Put(id)
	if added {
		b.reset(now, s.batchLen)
	}
	return b
}

// OnBlock records the locally computed MsgMAC for a received block. If the
// batch's Batched_MsgMAC already arrived and this block completes it, the
// verification result is returned, with done set.
func (s *MACStore) OnBlock(now sim.Cycle, tag BlockTag, mac [crypto.MACBytes]byte) (res VerifyResult, done bool) {
	b := s.batch(now, tag.BatchID)
	if tag.Index < len(b.have) && b.have[tag.Index] {
		// A duplicated block; the slot is already filled.
		return VerifyResult{}, false
	}
	if s.used >= s.capacity {
		// Storage exhausted: verification for this batch is abandoned (it
		// will be NACKed or expired, never completed).
		s.dropped++
		b.overflow = true
		return VerifyResult{}, false
	}
	for len(b.have) <= tag.Index {
		b.have = append(b.have, false)
		b.macs = append(b.macs, make([]byte, crypto.MACBytes)...)
	}
	b.have[tag.Index] = true
	copy(b.macs[tag.Index*crypto.MACBytes:], mac[:])
	b.count++
	s.used++
	if b.hasPending && !b.overflow && b.completeFor(b.pending.Len) {
		return s.finish(tag.BatchID, b, b.pending), true
	}
	return VerifyResult{}, false
}

// OnBatchMAC receives the Batched_MsgMAC. If all covered blocks are already
// stored the verification result is returned, with done set; otherwise it
// is held until the final block arrives. A duplicate for a batch whose
// Batched_MsgMAC is already held is ignored.
func (s *MACStore) OnBatchMAC(now sim.Cycle, cb ClosedBatch) (res VerifyResult, done bool) {
	b := s.batch(now, cb.BatchID)
	if b.hasPending {
		return VerifyResult{}, false
	}
	if !b.overflow && b.completeFor(cb.Len) {
		return s.finish(cb.BatchID, b, cb), true
	}
	b.pending, b.hasPending = cb, true
	return VerifyResult{}, false
}

func (s *MACStore) finish(id uint64, b *fillingBatch, cb ClosedBatch) VerifyResult {
	ok := BatchMAC(s.gen, b.macs[:cb.Len*crypto.MACBytes]) == cb.MAC
	if ok {
		s.verified++
	} else {
		s.failed++
		// Lazy verification already delivered every covered block.
		s.quarantined += uint64(cb.Len)
	}
	s.used -= b.count
	s.filling.Delete(id)
	return VerifyResult{BatchID: cb.BatchID, Len: cb.Len, OK: ok}
}

// Expire abandons every incomplete batch older than maxAge, returning them
// in batch-ID order so callers can NACK deterministically. The blocks such
// a batch did deliver are counted as quarantined: lazy verification handed
// them to the node before the batch could be checked.
func (s *MACStore) Expire(now sim.Cycle, maxAge sim.Cycle) []ExpiredBatch {
	var out []ExpiredBatch
	s.filling.Range(func(id uint64, b *fillingBatch) {
		if b.openedAt+maxAge > now {
			return
		}
		out = append(out, ExpiredBatch{BatchID: id, Received: b.count})
		s.dropped++
		s.quarantined += uint64(b.count)
		s.used -= b.count
		s.filling.Delete(id)
	})
	sort.Slice(out, func(i, j int) bool { return out[i].BatchID < out[j].BatchID })
	return out
}

// Filling returns the number of incomplete batches currently held.
func (s *MACStore) Filling() int { return s.filling.Len() }

// Verified returns the count of successfully verified batches.
func (s *MACStore) Verified() uint64 { return s.verified }

// Failed returns the count of batches whose Batched_MsgMAC mismatched.
func (s *MACStore) Failed() uint64 { return s.failed }

// Dropped returns batches abandoned due to capacity pressure or expiry.
func (s *MACStore) Dropped() uint64 { return s.dropped }

// Quarantined returns blocks that lazy verification delivered to the node
// before their batch failed or was abandoned.
func (s *MACStore) Quarantined() uint64 { return s.quarantined }
