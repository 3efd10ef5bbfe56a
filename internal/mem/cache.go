// Package mem provides the memory-side substrate of each processor: a
// set-associative LRU cache model (the shared L2 of Table III) and DRAM
// latency models for GPU HBM and host DRAM. The machine layer uses them to
// time how quickly a home node can serve remote block requests.
//
// The evaluation builds thousands of small cells, and a small cell touches
// few sets: at scale 0.01 about 9% of a 2 MiB L2's and 3% of an 8 MiB
// LLC's (a 16-GPU cell at 0.5 touches nearly all). So the cache stores tag
// state lazily: a set gets its lines on first access, carved out of
// fixed-size chunks that hold no pointers. Building a cache then costs one
// slot per set, and the garbage collector never scans the tag store.
//
// The tag store outlives its cache: a Cache draws its arrays from a
// Storage, and Release zeroes them and hands them back. Only the arrays
// are recycled: chunks pass freely between an L2 and an LLC, a released
// Cache panics on Access, and a cache on recycled arrays answers exactly
// as a fresh one.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"secmgpu/internal/sim"
)

// line is one way of a set. age is the LRU stamp of the last access; zero
// marks an invalid way, since the clock advances before every stamp.
type line struct {
	tag, age uint64
}

// chunkLines is the number of lines in one tag-store chunk: 64 KiB.
const chunkLines = 4096

// chunk is a full-size tag-store chunk. Only chunks of this size are
// recycled; a cache too small to fill one gets a chunk of its own size.
type chunk [chunkLines]line

// Storage holds the zeroed tag-store arrays of released caches, chunks
// and slot arrays, for the next caches built on it. The zero value is
// empty storage. The caches of one Storage share it while they live, so
// they must all run on one goroutine.
type Storage struct {
	chunks []*chunk
	slots  [][]int32
	// live counts the caches built on the Storage and not yet released;
	// drawn counts the full-size chunks they have drawn.
	live, drawn int
}

// maxSpareChunks is how many chunks a Storage keeps when its last caches
// drew fewer: 1 MiB. A cell of a `secbench -exp all` pass at scale 0.01
// draws 5 at the median and 9 at the 90th percentile.
const maxSpareChunks = 16

// Cache is a set-associative cache with LRU replacement, modelling tag
// state only: it answers hit/miss and maintains recency, which is all the
// timing model needs.
//
// Sets are materialized on first access. slot[set] is zero for a set never
// touched, and otherwise k+1 when the set was the k-th to be touched
// (counting from 0); its ways are lines [(k mod per)·ways, +ways) of chunk
// k/per, where per = 1<<chunkShift sets share a chunk. Chunks are allocated
// whole and never moved, so a growing tag store never copies.
type Cache struct {
	sets      uint64
	ways      int
	blockSize uint64

	// st lends the arrays; nil once Release handed them back.
	st         *Storage
	slot       []int32
	chunks     [][]line
	chunkShift uint
	touched    int32
	clock      uint64

	hits   uint64
	misses uint64
}

// NewCache builds a cache of capacityBytes with the given associativity and
// block size on fresh storage. Capacity must divide evenly into sets.
func NewCache(capacityBytes, ways, blockSize int) *Cache {
	return new(Storage).NewCache(capacityBytes, ways, blockSize)
}

// NewCache is the package-level NewCache, drawing arrays from st.
func (st *Storage) NewCache(capacityBytes, ways, blockSize int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || blockSize <= 0 {
		panic("mem: cache parameters must be positive")
	}
	blocks := capacityBytes / blockSize
	if blocks == 0 || blocks%ways != 0 {
		panic(fmt.Sprintf("mem: capacity %dB / block %dB not divisible into %d ways", capacityBytes, blockSize, ways))
	}
	sets := blocks / ways
	// Sets per chunk: the largest power of two whose lines fit in
	// chunkLines (at least one set), capped at the cache's own set count
	// rounded up, so a small cache gets a small chunk.
	shift := bits.Len(uint(max(chunkLines/ways, 1))) - 1
	shift = min(shift, bits.Len(uint(sets-1)))
	st.live++
	c := &Cache{
		st:         st,
		sets:       uint64(sets),
		ways:       ways,
		blockSize:  uint64(blockSize),
		chunkShift: uint(shift),
	}
	// Caches release in the order they were built, so each takes back
	// the array it had; any large enough will do.
	for i, slot := range st.slots {
		if cap(slot) >= sets {
			c.slot = slot[:sets]
			st.slots = slices.Delete(st.slots, i, i+1)
			return c
		}
	}
	c.slot = make([]int32, sets)
	return c
}

// Release ends the cache's life: it zeroes the slot array and every
// full-size chunk and hands them back to its Storage for later caches.
// When the Storage's last live cache is released, it keeps at most as
// many chunks as its caches drew or maxSpareChunks, whichever is larger,
// and drops the rest.
// Afterwards Access panics; the hit and miss counts stay readable.
// Releasing twice is a no-op.
func (c *Cache) Release() {
	st := c.st
	if st == nil {
		return
	}
	for _, ch := range c.chunks {
		if len(ch) == chunkLines {
			clear(ch)
			st.chunks = append(st.chunks, (*chunk)(ch))
		}
	}
	clear(c.slot)
	st.slots = append(st.slots, c.slot[:0])
	c.st, c.slot, c.chunks = nil, nil, nil
	if st.live--; st.live == 0 {
		if keep := max(st.drawn, maxSpareChunks); len(st.chunks) > keep {
			clear(st.chunks[keep:])
			st.chunks = st.chunks[:keep]
		}
		st.drawn = 0
	}
}

// Access looks up addr, allocating it on a miss (evicting the LRU way) and
// reporting whether it hit. The victim is the last invalid way, otherwise
// the way with the oldest stamp.
func (c *Cache) Access(addr uint64) bool {
	if c.st == nil {
		panic("mem: access to a released cache")
	}
	c.clock++
	block := addr / c.blockSize
	set := block % c.sets
	tag := block / c.sets
	ways := c.lines(set)
	lru, lruAge := 0, ^uint64(0)
	for w := range ways {
		l := &ways[w]
		if l.age == 0 {
			lru, lruAge = w, 0
			continue
		}
		if l.tag == tag {
			l.age = c.clock
			c.hits++
			return true
		}
		if l.age < lruAge {
			lru, lruAge = w, l.age
		}
	}
	c.misses++
	ways[lru] = line{tag: tag, age: c.clock}
	return false
}

// lines returns set's ways, giving the set its lines on first access.
func (c *Cache) lines(set uint64) []line {
	s := c.slot[set]
	if s == 0 {
		if int(c.touched)>>c.chunkShift == len(c.chunks) {
			c.chunks = append(c.chunks, c.st.chunk(c.ways<<c.chunkShift))
		}
		c.touched++
		s = c.touched
		c.slot[set] = s
	}
	k := int(s - 1)
	off := (k & (1<<c.chunkShift - 1)) * c.ways
	return c.chunks[k>>c.chunkShift][off : off+c.ways : off+c.ways]
}

// chunk returns n zeroed lines: a recycled full-size chunk when n is
// chunkLines and st has one, else a fresh slice.
func (st *Storage) chunk(n int) []line {
	if n != chunkLines {
		return make([]line, n)
	}
	st.drawn++
	if k := len(st.chunks) - 1; k >= 0 {
		ch := st.chunks[k]
		st.chunks[k] = nil
		st.chunks = st.chunks[:k]
		return ch[:]
	}
	return new(chunk)[:]
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits / accesses, or 0 before any access.
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// Memory times block service at a home node: an L2 lookup in front of DRAM.
type Memory struct {
	l2          *Cache
	l2Latency   sim.Cycle
	dramLatency sim.Cycle
}

// NewMemory builds the home-node memory path. l2 may be nil to model a
// DRAM-only path.
func NewMemory(l2 *Cache, l2Latency, dramLatency sim.Cycle) *Memory {
	return &Memory{l2: l2, l2Latency: l2Latency, dramLatency: dramLatency}
}

// Release hands the L2's tag store back to its Storage (see
// Cache.Release).
func (m *Memory) Release() {
	if m.l2 != nil {
		m.l2.Release()
	}
}

// ServiceLatency returns the cycles needed to produce the block at addr.
func (m *Memory) ServiceLatency(addr uint64) sim.Cycle {
	if m.l2 == nil {
		return m.dramLatency
	}
	if m.l2.Access(addr) {
		return m.l2Latency
	}
	return m.l2Latency + m.dramLatency
}

// HBM returns the GPU-side memory path of Table III on st: a 2MB 16-way
// shared L2 in front of stacked HBM.
func (st *Storage) HBM(blockSize int) *Memory {
	return NewMemory(st.NewCache(2<<20, 16, blockSize), 40, 160)
}

// HostDRAM returns the CPU-side memory path on st: a larger LLC in front
// of slower DDR.
func (st *Storage) HostDRAM(blockSize int) *Memory {
	return NewMemory(st.NewCache(8<<20, 16, blockSize), 50, 220)
}
