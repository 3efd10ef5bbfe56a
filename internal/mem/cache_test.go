package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 blocks, 8 sets, 2 ways
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets, 2 ways
	// Three blocks mapping to set 0: block numbers 0, 8, 16.
	c.Access(0 * 64)
	c.Access(8 * 64)
	c.Access(0 * 64)  // touch 0: now 8 is LRU
	c.Access(16 * 64) // evicts 8
	if !c.Access(0 * 64) {
		t.Error("block 0 evicted despite being MRU")
	}
	if c.Access(8 * 64) {
		t.Error("block 8 still resident despite LRU eviction")
	}
}

func TestCacheDistinctSetsDoNotConflict(t *testing.T) {
	c := NewCache(1024, 2, 64)
	for b := uint64(0); b < 8; b++ {
		c.Access(b * 64)
	}
	for b := uint64(0); b < 8; b++ {
		if !c.Access(b * 64) {
			t.Errorf("block %d missed; one block per set should all fit", b)
		}
	}
}

func TestCacheBadParamsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero capacity": func() { NewCache(0, 2, 64) },
		"ragged ways":   func() { NewCache(1024, 7, 64) },
		"zero block":    func() { NewCache(1024, 2, 0) },
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

func TestCacheHitRate(t *testing.T) {
	c := NewCache(1024, 2, 64)
	if c.HitRate() != 0 {
		t.Error("hit rate before accesses should be 0")
	}
	c.Access(0)
	c.Access(0)
	c.Access(64)
	if got := c.HitRate(); got < 0.33 || got > 0.34 {
		t.Errorf("hit rate=%v, want 1/3", got)
	}
}

// Property: a working set no larger than one set's ways never misses after
// the first touch, for any access order.
func TestCacheSmallWorkingSetProperty(t *testing.T) {
	prop := func(order []uint8) bool {
		c := NewCache(4096, 4, 64) // 16 sets, 4 ways
		// Working set: 4 blocks all in set 3.
		base := uint64(3 * 64)
		stride := uint64(16 * 64)
		seen := map[uint64]bool{}
		for _, o := range order {
			addr := base + uint64(o%4)*stride
			hit := c.Access(addr)
			if seen[addr] && !hit {
				return false
			}
			seen[addr] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryServiceLatency(t *testing.T) {
	m := NewMemory(NewCache(1024, 2, 64), 40, 160)
	if got := m.ServiceLatency(0); got != 200 {
		t.Errorf("cold service=%d, want 200 (L2 miss + DRAM)", got)
	}
	if got := m.ServiceLatency(0); got != 40 {
		t.Errorf("warm service=%d, want 40 (L2 hit)", got)
	}
}

func TestMemoryNilL2(t *testing.T) {
	m := NewMemory(nil, 40, 160)
	if got := m.ServiceLatency(123); got != 160 {
		t.Errorf("DRAM-only service=%d, want 160", got)
	}
}

func TestHBMAndHostPresets(t *testing.T) {
	h := new(Storage).HBM(64)
	d := new(Storage).HostDRAM(64)
	if h.ServiceLatency(0) != 200 {
		t.Errorf("HBM cold=%d, want 200", h.ServiceLatency(0))
	}
	if d.ServiceLatency(0) != 270 {
		t.Errorf("host cold=%d, want 270", d.ServiceLatency(0))
	}
}

// refCache is the nested-slice cache the lazy chunked tag store replaced,
// kept as the reference model for TestCacheMatchesReference.
type refCache struct {
	sets, ways, blockSize int
	tags, age             [][]uint64
	valid                 [][]bool
	clock                 uint64
	hits, misses          uint64
}

func newRefCache(capacityBytes, ways, blockSize int) *refCache {
	sets := capacityBytes / blockSize / ways
	c := &refCache{sets: sets, ways: ways, blockSize: blockSize}
	c.tags = make([][]uint64, sets)
	c.age = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.age[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c
}

func (c *refCache) Access(addr uint64) bool {
	c.clock++
	block := addr / uint64(c.blockSize)
	set := int(block % uint64(c.sets))
	tag := block / uint64(c.sets)
	lru, lruAge := 0, ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.age[set][w] = c.clock
			c.hits++
			return true
		}
		if !c.valid[set][w] {
			lru, lruAge = w, 0
		} else if c.age[set][w] < lruAge {
			lru, lruAge = w, c.age[set][w]
		}
	}
	c.misses++
	c.valid[set][lru] = true
	c.tags[set][lru] = tag
	c.age[set][lru] = c.clock
	return false
}

// TestCacheMatchesReference drives the cache and the nested-slice reference
// with the same seeded address streams and requires the identical hit/miss
// sequence and counters, for every geometry the simulator builds plus a
// direct-mapped and an odd-associativity cache.
func TestCacheMatchesReference(t *testing.T) {
	cases := []struct {
		name                   string
		capacity, ways, block  int
		footprint, hot, stride uint64
	}{
		// Footprints a few times capacity force evictions; hot addresses
		// give hits; stride spreads a stream over sets.
		{"hbm", 2 << 20, 16, 64, 8 << 20, 1 << 16, 64},
		{"host", 8 << 20, 16, 64, 32 << 20, 1 << 16, 64},
		{"tlb-l1", 64, 16, 1, 256, 32, 1},
		{"tlb-l2", 1024, 8, 1, 4096, 256, 1},
		{"direct-mapped", 4096, 1, 64, 16384, 1024, 64},
		{"odd-ways", 7 * 64 * 48, 7, 64, 7 * 64 * 200, 2048, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.capacity + tc.ways)))
			c := NewCache(tc.capacity, tc.ways, tc.block)
			ref := newRefCache(tc.capacity, tc.ways, tc.block)
			for i := 0; i < 200000; i++ {
				var addr uint64
				if rng.Intn(2) == 0 {
					addr = uint64(rng.Int63n(int64(tc.hot)))
				} else {
					addr = uint64(rng.Int63n(int64(tc.footprint))) / tc.stride * tc.stride
				}
				if got, want := c.Access(addr), ref.Access(addr); got != want {
					t.Fatalf("access %d (addr %#x): hit=%v, reference %v", i, addr, got, want)
				}
			}
			if c.Hits() != ref.hits || c.Misses() != ref.misses {
				t.Fatalf("hits/misses %d/%d, reference %d/%d", c.Hits(), c.Misses(), ref.hits, ref.misses)
			}
			// Every set materialized, so the stream crossed every chunk
			// boundary (the host LLC spans eight chunks).
			if int(c.touched) != len(c.slot) {
				t.Fatalf("stream touched %d of %d sets", c.touched, len(c.slot))
			}
		})
	}
}

// TestReleasedCachePanics checks that a released cache fails loudly, since
// its arrays may already serve another cache, while its counters stay
// readable.
func TestReleasedCachePanics(t *testing.T) {
	m := new(Storage).HBM(64)
	m.ServiceLatency(0)
	m.ServiceLatency(0)
	m.Release()
	m.Release() // a second release is a no-op
	if m.l2.Hits() != 1 || m.l2.Misses() != 1 {
		t.Fatalf("released cache reports %d hits, %d misses; want 1, 1", m.l2.Hits(), m.l2.Misses())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Access on a released cache did not panic")
		}
	}()
	m.ServiceLatency(64)
}

// TestRecycledCacheMatchesFresh dirties caches, releases them, and builds
// new ones on the same Storage, which hands them the released slot arrays
// and chunks. A cache on recycled arrays must answer the same hit/miss
// sequence as one on fresh arrays.
func TestRecycledCacheMatchesFresh(t *testing.T) {
	stream := func(seed int64, c *Cache, hits []bool) []bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50000; i++ {
			addr := uint64(rng.Intn(2<<20)) &^ 63
			if rng.Intn(2) == 0 {
				addr = uint64(rng.Intn(32<<20)) &^ 63
			}
			hits = append(hits, c.Access(addr))
		}
		return hits
	}
	want := stream(2, NewCache(8<<20, 16, 64), nil)
	var st Storage
	for round := 0; round < 3; round++ {
		old := st.NewCache(8<<20, 16, 64)
		stream(int64(round+10), old, nil)
		slot := &old.slot[0]
		chunks := map[*line]bool{}
		for _, ch := range old.chunks {
			chunks[&ch[0]] = true
		}
		old.Release()
		c := st.NewCache(8<<20, 16, 64)
		got := stream(2, c, nil)
		reusedChunk := false
		for _, ch := range c.chunks {
			reusedChunk = reusedChunk || chunks[&ch[0]]
		}
		if &c.slot[0] != slot || !reusedChunk {
			t.Fatalf("round %d: slot reused %v, chunk reused %v; want both", round, &c.slot[0] == slot, reusedChunk)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: access %d hit=%v on recycled arrays, %v on fresh ones", round, i, got[i], want[i])
			}
		}
		c.Release()
	}
}
