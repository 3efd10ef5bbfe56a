package core

import (
	"testing"

	"secmgpu/internal/crypto"
	"secmgpu/internal/sim"
)

// BenchmarkAdjustInterval times one monitoring interval of the Dynamic
// manager at a 16-GPU node (15 peers, OTP 4x budget): 64 pad takes whose
// skew flips between two peer groups each interval, then AdjustInterval,
// so every op re-partitions the pad budget (Formulas 1-4) and re-slots
// the streams whose depth changed.
func BenchmarkAdjustInterval(b *testing.B) {
	const peers = 15
	d := NewDynamic(peers, 8*peers, 0.9, 0.5, crypto.NewEngine(aesLat))
	ctr := make([]uint64, peers)
	var now sim.Cycle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hot := (i % 2) * 8
		for k := 0; k < 64; k++ {
			now += 10
			if peer := hot + k%4; k%4 == 0 {
				d.UseRecv(now, peer, ctr[peer])
				ctr[peer]++
			} else {
				d.UseSend(now, peer)
			}
		}
		d.AdjustInterval(now)
	}
}

// BenchmarkBatchOpenClose times one batch through the sender-side
// batcher at the default n = 16: the first Add opens it, the sixteenth
// closes it and computes the timing-only Batched_MsgMAC.
func BenchmarkBatchOpenClose(b *testing.B) {
	const n = 16
	bt := NewBatcher(n, nil)
	var mac [crypto.MACBytes]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < n; k++ {
			mac[0] = byte(k)
			bt.Add(mac)
		}
	}
}

// BenchmarkMACStoreOnBlock times one batch of n = 16 blocks through the
// receiver-side MsgMAC storage, in order, with its Batched_MsgMAC
// arriving after the last block, as on a healthy FIFO channel: sixteen
// OnBlock calls and the verification OnBatchMAC runs.
func BenchmarkMACStoreOnBlock(b *testing.B) {
	const n = 16
	s := NewMACStore(64, n, nil)
	var mac [crypto.MACBytes]byte
	macs := make([]byte, 0, n*crypto.MACBytes)
	for k := 0; k < n; k++ {
		mac[0] = byte(k)
		macs = append(macs, mac[:]...)
	}
	cb := ClosedBatch{Len: n, MAC: BatchMAC(nil, macs)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		for k := 0; k < n; k++ {
			mac[0] = byte(k)
			s.OnBlock(sim.Cycle(i), BlockTag{BatchID: id, Index: k, First: k == 0}, mac)
		}
		cb.BatchID = id
		if res, done := s.OnBatchMAC(sim.Cycle(i), cb); !done || !res.OK {
			b.Fatal("batch did not verify")
		}
	}
}
