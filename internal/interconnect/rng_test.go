package interconnect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"secmgpu/internal/sim"
)

// streamDraws is how many draws each generator is checked for.
const streamDraws = 10_000

// linkSeeds returns the seeds NewFabric gives the fault generators and
// newOutageModel the link and node outage generators of an n-node fabric
// whose profiles are seeded with base.
func linkSeeds(n int, base int64) []int64 {
	var seeds []int64
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				seeds = append(seeds, base^int64(s*n+d+1)*0x5851f42d4c957f2d)
			}
		}
	}
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			seeds = append(seeds, base^int64(lo*n+hi+1)*0x6a09e667f3bcc909)
		}
	}
	for i := 0; i < n; i++ {
		seeds = append(seeds, base^int64(n*n+i+1)*0x6a09e667f3bcc909)
	}
	return seeds
}

// resetSeeds empties the process-wide seed store.
func resetSeeds() {
	seeds.mu.Lock()
	defer seeds.mu.Unlock()
	clear(seeds.srcs)
	seeds.bytes = 0
}

// checkStreams draws one generator per seed from f and checks that its
// first draws values, Float64 and ExpFloat64 interleaved, are those of a
// generator built on a newly seeded source. It returns the generators.
func checkStreams(t *testing.T, f *Fabric, seedList []int64, draws int) []*rand.Rand {
	t.Helper()
	var gens []*rand.Rand
	for _, seed := range seedList {
		r := f.rng(seed)
		gens = append(gens, r)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			got, exp := r.Float64(), want.Float64()
			if i%3 == 2 {
				got, exp = r.ExpFloat64(), want.ExpFloat64()
			}
			if got != exp {
				t.Fatalf("seed %#x: draw %d = %v, want %v", seed, i, got, exp)
			}
		}
	}
	return gens
}

// TestLinkGeneratorStreams checks that the fault and outage generators,
// whose seeded state comes from the process-wide seed store, draw exactly
// what math/rand generators seeded afresh draw: on a cold store, on a
// warm one, and in recycled generators an earlier seed had advanced. The
// store must keep to its budget, and clearing it on overflow must not
// change a stream.
func TestLinkGeneratorStreams(t *testing.T) {
	cfg := testConfig(4)
	for _, n := range []int{5, 9, 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			seedList := linkSeeds(n, 7)
			resetSeeds()
			st := new(Storage)
			f := st.NewFabric(sim.NewEngine(), cfg)
			cold := checkStreams(t, f, seedList, streamDraws)
			f.Release()

			checkStreams(t, new(Storage).NewFabric(sim.NewEngine(), cfg), seedList, streamDraws)

			spares := map[*rand.Rand]bool{}
			for _, r := range cold {
				spares[r] = true
			}
			recycled := checkStreams(t, st.NewFabric(sim.NewEngine(), cfg), linkSeeds(n, 8), streamDraws)
			for _, r := range recycled {
				if !spares[r] {
					t.Fatalf("a fabric on storage holding %d spares built a new generator", len(cold))
				}
			}
		})
	}

	t.Run("budget", func(t *testing.T) {
		resetSeeds()
		size := int(reflect.TypeOf(rand.NewSource(0)).Elem().Size())
		capacity := seedCacheBytes / size
		var seedList []int64
		for base := int64(0); len(seedList) < 3*capacity; base++ {
			seedList = append(seedList, linkSeeds(9, base)...)
		}
		f := NewFabric(sim.NewEngine(), cfg)
		for _, seed := range seedList {
			checkStreams(t, f, []int64{seed}, 100)
			seeds.mu.Lock()
			held, bytes := len(seeds.srcs)*size, seeds.bytes
			seeds.mu.Unlock()
			if held != bytes || bytes > seedCacheBytes {
				t.Fatalf("after seed %#x: %d sources hold %d bytes, counted %d, budget %d", seed, held/size, held, bytes, seedCacheBytes)
			}
		}
		// Every seed again, now past several clears: the early ones were
		// evicted and are seeded anew, the late ones are still held.
		checkStreams(t, f, seedList, 100)
	})

	t.Run("parallel", func(t *testing.T) {
		resetSeeds()
		for w := 0; w < 4; w++ {
			t.Run(fmt.Sprint("worker", w), func(t *testing.T) {
				t.Parallel()
				st := new(Storage)
				for round := 0; round < 3; round++ {
					f := st.NewFabric(sim.NewEngine(), cfg)
					checkStreams(t, f, linkSeeds(5, int64(round+w%2)), 2_000)
					f.Release()
				}
			})
		}
	})
}
