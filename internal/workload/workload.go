// Package workload generates the remote-communication traces of the
// paper's 17 evaluated benchmarks (Table IV). MGPUSim executes the actual
// OpenCL kernels; this reproduction instead synthesizes each benchmark's
// remote access stream from its published communication characteristics:
//
//   - intensity: the RPKI class (remote requests per kilo-instruction)
//     sets the compute gap between bursts;
//   - burstiness: GPUs emit requests in bursts (Figures 15-16 show 16
//     blocks typically gathering within 160 cycles);
//   - locality: destinations are phase-concentrated and drift over the
//     execution (Figures 13-14);
//   - sharing style: the page-reuse rate determines how much traffic the
//     access-counter policy converts into page migrations, and the
//     read/write mix sets the send/receive balance.
//
// Every generator is deterministic in (gpu, numGPUs, scale, seed).
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"unsafe"

	"secmgpu/internal/config"
)

// OpKind is the remote operation type.
type OpKind uint8

const (
	// Read fetches one remote 64B block (request out, data back).
	Read OpKind = iota
	// Write pushes one 64B block to the remote home (data out, ack back).
	Write
)

// Op is one remote memory operation in a GPU's trace, in 12 bytes: the
// trace cache budgets by its size.
type Op struct {
	// Gap is the compute delay in cycles between this op becoming
	// eligible and the previous op's issue.
	Gap uint32
	// Page is the page index within this requester's pool at Home.
	Page uint32
	// Kind is Read or Write.
	Kind OpKind
	// Home is the node the target page is homed at (0 = CPU); a system
	// has at most config.MaxGPUs GPUs, so it fits a byte.
	Home uint8
	// Block is the 64B block within the page (0..63).
	Block uint8
}

// Class is the RPKI grouping of Table IV.
type Class int

const (
	// HighRPKI marks workloads with more than 1000 remote requests per
	// kilo-instruction.
	HighRPKI Class = iota
	// MediumRPKI marks workloads between 100 and 1000.
	MediumRPKI
	// LowRPKI marks workloads below 100.
	LowRPKI
)

// String names the class as in Table IV.
func (c Class) String() string {
	switch c {
	case HighRPKI:
		return "High RPKI"
	case MediumRPKI:
		return "Medium RPKI"
	case LowRPKI:
		return "Low RPKI"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Spec parameterizes one benchmark's communication model.
type Spec struct {
	// Name is the full workload name, Abbr the paper's abbreviation, and
	// Suite the benchmark suite it comes from (Table IV).
	Name  string
	Abbr  string
	Suite string
	// Class is the RPKI grouping.
	Class Class

	// OpsPerGPU is the remote-op count per GPU at scale 1.
	OpsPerGPU int
	// BurstMin/BurstMax bound the burst length (requests emitted nearly
	// back to back to one destination).
	BurstMin, BurstMax int
	// IntraGapMax bounds the cycle gap between requests within a burst.
	IntraGapMax int
	// InterGapMin/InterGapMax bound the compute gap between bursts; this
	// is the knob that realizes the RPKI class.
	InterGapMin, InterGapMax int
	// WriteFrac is the fraction of remote writes.
	WriteFrac float64
	// CPUWeight is the relative probability weight of the CPU as a
	// destination (against 1.0 for each candidate GPU).
	CPUWeight float64
	// Phases is the number of destination-locality phases.
	Phases int
	// HotDests is how many destinations dominate each phase.
	HotDests int
	// Concentration is the probability a burst goes to a hot destination.
	Concentration float64
	// PageReuse is the probability a burst revisits a recently used page,
	// which is what trips the access-counter migration policy.
	PageReuse float64
	// PagePool is the page-pool size per (requester, home).
	PagePool int
	// Stray is the probability that an op inside a burst targets a
	// different destination. GPUs interleave traffic from many concurrent
	// wavefronts, so even "bursty" per-destination streams carry stray
	// accesses; this is precisely what defeats the Shared scheme's
	// back-to-back receive prediction. Zero selects the default of 0.15.
	Stray float64
}

// Validate reports the first parameter error.
func (s Spec) Validate() error {
	switch {
	case s.Name == "" || s.Abbr == "":
		return fmt.Errorf("workload: spec needs a name and abbreviation")
	case s.OpsPerGPU < 1:
		return fmt.Errorf("workload %s: OpsPerGPU must be positive", s.Abbr)
	case s.BurstMin < 1 || s.BurstMax < s.BurstMin:
		return fmt.Errorf("workload %s: invalid burst bounds [%d,%d]", s.Abbr, s.BurstMin, s.BurstMax)
	case s.InterGapMin < 0 || s.InterGapMax < s.InterGapMin:
		return fmt.Errorf("workload %s: invalid inter gap bounds", s.Abbr)
	case s.WriteFrac < 0 || s.WriteFrac > 1:
		return fmt.Errorf("workload %s: WriteFrac outside [0,1]", s.Abbr)
	case s.Concentration < 0 || s.Concentration > 1:
		return fmt.Errorf("workload %s: Concentration outside [0,1]", s.Abbr)
	case s.PageReuse < 0 || s.PageReuse > 1:
		return fmt.Errorf("workload %s: PageReuse outside [0,1]", s.Abbr)
	case s.Phases < 1 || s.HotDests < 1 || s.PagePool < 1:
		return fmt.Errorf("workload %s: Phases, HotDests, PagePool must be positive", s.Abbr)
	}
	return nil
}

// Traces returns the full per-GPU trace set for one simulation of spec on
// a numGPUs system: traces[g-1] is GPU g's op stream. It is the single
// trace builder behind secmgpu.Run and the sweep engine.
//
// The result is read-only. Traces keeps recent sets in a process-wide
// cache and hands every caller the same per-GPU slices; each call gets a
// fresh outer slice, and each per-GPU slice is clipped to its length, so
// replacing or appending to one never reaches the cache, but writing an
// element in place would.
func Traces(spec Spec, numGPUs int, scale float64, seed int64) [][]Op {
	key := traceKey{spec, numGPUs, scale, seed}
	set := traceCache.get(key)
	if set == nil {
		set = make([][]Op, numGPUs)
		for g := 1; g <= numGPUs; g++ {
			set[g-1] = spec.Trace(g, numGPUs, scale, seed)
		}
		traceCache.put(key, set)
	}
	traces := make([][]Op, len(set))
	for i, t := range set {
		traces[i] = t[:len(t):len(t)]
	}
	return traces
}

// traceCacheBytes is the op storage the trace cache may hold. The paper's
// figures compare every scheme on the same workloads, so a secbench pass
// asks for each set many times; at this budget the cache serves ~95% of
// those calls, about what holding every set would, and adds at most 1 MiB
// to a sweep's peak RSS.
const traceCacheBytes = 1 << 20

// traceKey identifies one trace set: everything Traces reads.
type traceKey struct {
	spec    Spec
	numGPUs int
	scale   float64
	seed    int64
}

// traceStore holds recently built trace sets, at most traceCacheBytes of
// ops in all. A set that would overflow the budget clears the whole store
// first, and a set larger than the budget on its own is never kept. A
// mutex because sweep workers build traces on parallel goroutines.
type traceStore struct {
	mu    sync.Mutex
	sets  map[traceKey][][]Op
	bytes int
}

// traceCache is the process-wide store behind Traces.
var traceCache = traceStore{sets: make(map[traceKey][][]Op)}

// setBytes is the op storage of one trace set.
func setBytes(set [][]Op) int {
	n := 0
	for _, t := range set {
		n += len(t)
	}
	return n * int(unsafe.Sizeof(Op{}))
}

// get returns the stored set for key, nil if there is none.
func (c *traceStore) get(key traceKey) [][]Op {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sets[key]
}

// put stores set under key, unless it is over budget on its own or a
// parallel caller stored the key first.
func (c *traceStore) put(key traceKey, set [][]Op) {
	n := setBytes(set)
	if n > traceCacheBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sets[key]; ok {
		return
	}
	if c.bytes+n > traceCacheBytes {
		clear(c.sets)
		c.bytes = 0
	}
	c.sets[key] = set
	c.bytes += n
}

// Trace generates the remote-op stream for one GPU (1-based GPU id) in a
// numGPUs system. scale multiplies the op count; seed drives all
// randomness deterministically.
func (s Spec) Trace(gpu, numGPUs int, scale float64, seed int64) []Op {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if numGPUs > config.MaxGPUs {
		panic(fmt.Sprintf("workload: %d GPUs exceed config.MaxGPUs (%d)", numGPUs, config.MaxGPUs))
	}
	if gpu < 1 || gpu > numGPUs {
		panic(fmt.Sprintf("workload: gpu %d outside 1..%d", gpu, numGPUs))
	}
	return s.generate(rand.New(rand.NewSource(traceSeed(gpu, numGPUs, seed))), gpu, numGPUs, scale)
}

// traceSeed is the generator seed of one GPU's trace.
func traceSeed(gpu, numGPUs int, seed int64) int64 {
	return seed*1_000_003 + int64(gpu)*7919 + int64(numGPUs)
}

// generate draws one GPU's trace from rng, freshly seeded by the caller.
func (s Spec) generate(rng *rand.Rand, gpu, numGPUs int, scale float64) []Op {
	nOps := int(float64(s.OpsPerGPU) * scale)
	if nOps < 1 {
		nOps = 1
	}

	// Candidate destinations: the CPU (weight CPUWeight) and every other
	// GPU (weight 1 each).
	dests := make([]int, 0, numGPUs)
	dests = append(dests, 0)
	for g := 1; g <= numGPUs; g++ {
		if g != gpu {
			dests = append(dests, g)
		}
	}

	stray := s.Stray
	if stray == 0 {
		stray = 0.15
	}
	if stray < 0 {
		stray = 0
	}

	ops := make([]Op, 0, nOps)
	phaseLen := (nOps + s.Phases - 1) / s.Phases
	var hot []int
	recent := make(map[int][]uint32) // per home: recently used pages
	nextPage := make(map[int]uint32)

	pickDest := func() int {
		if len(hot) > 0 && rng.Float64() < s.Concentration {
			return hot[rng.Intn(len(hot))]
		}
		// Weighted pick: CPU carries CPUWeight, GPUs 1.0 each.
		total := s.CPUWeight + float64(len(dests)-1)
		r := rng.Float64() * total
		if r < s.CPUWeight {
			return 0
		}
		idx := 1 + int((r-s.CPUWeight)/1.0)
		if idx >= len(dests) {
			idx = len(dests) - 1
		}
		return dests[idx]
	}

	pickPage := func(home int) uint32 {
		rec := recent[home]
		if len(rec) > 0 && rng.Float64() < s.PageReuse {
			return rec[rng.Intn(len(rec))]
		}
		p := nextPage[home] % uint32(s.PagePool)
		nextPage[home]++
		rec = append(rec, p)
		if len(rec) > 8 {
			rec = rec[1:]
		}
		recent[home] = rec
		return p
	}

	nextPhaseAt := 0
	for len(ops) < nOps {
		if len(ops) >= nextPhaseAt {
			// New phase: re-pick the hot destinations.
			nextPhaseAt += phaseLen
			hot = hot[:0]
			perm := rng.Perm(len(dests))
			for i := 0; i < s.HotDests && i < len(dests); i++ {
				hot = append(hot, dests[perm[i]])
			}
			sort.Ints(hot)
		}
		dest := pickDest()
		page := pickPage(dest)
		burst := s.BurstMin
		if s.BurstMax > s.BurstMin {
			burst += rng.Intn(s.BurstMax - s.BurstMin + 1)
		}
		startBlock := rng.Intn(64)
		for b := 0; b < burst && len(ops) < nOps; b++ {
			gap := uint32(0)
			if b == 0 {
				gap = uint32(s.InterGapMin)
				if s.InterGapMax > s.InterGapMin {
					gap += uint32(rng.Intn(s.InterGapMax - s.InterGapMin + 1))
				}
			} else if s.IntraGapMax > 0 {
				gap = uint32(rng.Intn(s.IntraGapMax + 1))
			}
			kind := Read
			if rng.Float64() < s.WriteFrac {
				kind = Write
			}
			opDest, opPage, opBlock := dest, page, uint8((startBlock+b)%64)
			if b > 0 && rng.Float64() < stray {
				// A stray access from another wavefront interleaves
				// into the burst.
				opDest = dests[rng.Intn(len(dests))]
				opPage = pickPage(opDest)
				opBlock = uint8(rng.Intn(64))
			}
			ops = append(ops, Op{
				Gap:   gap,
				Kind:  kind,
				Home:  uint8(opDest),
				Page:  opPage,
				Block: opBlock,
			})
		}
	}
	return ops
}
