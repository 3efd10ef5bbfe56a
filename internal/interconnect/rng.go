package interconnect

import (
	"math/rand"
	"reflect"
	"sync"
)

// linkRand is one fault or outage generator and the source it draws
// from, kept side by side so a recycled generator's source can be
// overwritten in place. The Rand keeps only the read buffer of its last
// Read besides, and nothing calls Read, so a generator whose source is
// overwritten draws what a new one on that source would.
type linkRand struct {
	r   *rand.Rand
	src rand.Source
}

// seedCacheBytes is the source state the seed store may hold. A source is
// ~4.9 KB, and a `secbench -exp all` pass seeds ~35 distinct link seeds,
// the 4-GPU resilience and degradation cells' ones, each for every such
// cell; at this budget the store holds every one of them and adds at most
// 1 MiB to a sweep's peak RSS. A 16-GPU fault profile (272 directed
// links) overflows it and seeds afresh.
const seedCacheBytes = 1 << 20

// seedStore holds pristine sources by seed, at most seedCacheBytes of
// them in all. A source that would overflow the budget clears the whole
// store first. A stored source is never drawn from, only copied, so
// callers read it without the lock; the mutex is for sweep workers that
// build fabrics on parallel goroutines.
type seedStore struct {
	mu    sync.Mutex
	srcs  map[int64]rand.Source
	bytes int
}

// seeds is the process-wide store behind (*Fabric).rng.
var seeds = seedStore{srcs: make(map[int64]rand.Source)}

// get returns the pristine source seeded with seed, seeding it on a miss.
func (c *seedStore) get(seed int64) rand.Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	if src, ok := c.srcs[seed]; ok {
		return src
	}
	src := rand.NewSource(seed)
	n := int(reflect.TypeOf(src).Elem().Size())
	if c.bytes+n > seedCacheBytes {
		clear(c.srcs)
		c.bytes = 0
	}
	c.srcs[seed] = src
	c.bytes += n
	return src
}

// rng returns a generator in the state rand.New(rand.NewSource(seed))
// starts in, so it draws the same sequence. Seeding a source costs about
// 150 times what copying a seeded one does, so the seeded state comes
// from the process-wide seed store and is copied into a spare
// generator's source; only when the fabric has no spare left is a new
// generator built on a new copy. The copy works because math/rand's
// source is a plain value struct.
func (f *Fabric) rng(seed int64) *rand.Rand {
	pristine := reflect.ValueOf(seeds.get(seed)).Elem()
	if f.drawn == len(f.rngs) {
		dst := reflect.New(pristine.Type())
		dst.Elem().Set(pristine)
		src := dst.Interface().(rand.Source)
		f.rngs = append(f.rngs, linkRand{rand.New(src), src})
	} else {
		reflect.ValueOf(f.rngs[f.drawn].src).Elem().Set(pristine)
	}
	f.drawn++
	return f.rngs[f.drawn-1].r
}
