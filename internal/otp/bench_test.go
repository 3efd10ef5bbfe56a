package otp

import (
	"testing"

	"secmgpu/internal/crypto"
	"secmgpu/internal/sim"
)

// taker is the pad-use surface every scheme's tables share: Manager, and
// the Adjustable table behind the Dynamic scheme.
type taker interface {
	UseSend(now sim.Cycle, peer int) Use
	UseRecv(now sim.Cycle, peer int, ctr uint64) Use
}

// BenchmarkTakeRefill times one pad take per direction on each scheme's
// tables at a 16-GPU node (15 peers), at Table III's iso-storage budget
// (OTP 4x: eight entries per peer). Each op takes the next send pad and
// the next expected receive pad of one peer, round robin, with the clock
// 10 cycles further on, so every take finds its slot part way through
// regenerating the pad that refills it: hits, partial stalls and the
// slot's refill all run.
func BenchmarkTakeRefill(b *testing.B) {
	const peers = 15
	eng := crypto.NewEngine(aesLat)
	for _, tc := range []struct {
		name string
		t    taker
	}{
		{"Private", NewPrivate(peers, 4, eng)},
		{"Shared", NewShared(peers, 8*peers, eng)},
		{"Cached", NewCached(peers, 8*peers, eng)},
		{"Adjustable", NewAdjustable(peers, 4, eng)},
		{"Oracle", NewOracle(peers)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctr := make([]uint64, peers)
			var now sim.Cycle
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				peer := i % peers
				now += 10
				tc.t.UseSend(now, peer)
				tc.t.UseRecv(now, peer, ctr[peer])
				ctr[peer]++
			}
		})
	}
}
