package interconnect

import (
	"math/rand"

	"secmgpu/internal/config"
	"secmgpu/internal/sim"
)

// An outage (config.OutageProfile) kills every protected message crossing
// a dark link or a resetting node for the whole window, unlike a fault,
// which is a coin flip per message: that is what forces the secure
// channel's counter-resynchronization path rather than its per-message
// retransmission path.

// window is one scripted outage interval [from, until).
type window struct {
	from, until sim.Cycle
}

// outageState is the down/up schedule of one link or node. Random windows
// are advanced lazily: nothing is scheduled on the engine, so an inactive
// schedule costs nothing and fault-free event orderings are untouched.
type outageState struct {
	rng       *rand.Rand
	meanUp    float64
	meanDown  float64
	nextDown  sim.Cycle // start of the next (not yet entered) random window
	downUntil sim.Cycle // end of the last entered random window
	forced    []window
	count     *uint64 // outage windows entered, for Stats
}

func (f *Fabric) newOutageState(seed int64, meanUp, meanDown uint64, count *uint64) *outageState {
	s := &outageState{count: count}
	if meanUp > 0 && meanDown > 0 {
		s.rng = f.rng(seed)
		s.meanUp = float64(meanUp)
		s.meanDown = float64(meanDown)
		s.nextDown = s.sample(s.meanUp)
	}
	return s
}

// sample draws an exponential duration with the given mean, at least one
// cycle so windows always make progress.
func (s *outageState) sample(mean float64) sim.Cycle {
	return sim.Cycle(s.rng.ExpFloat64()*mean) + 1
}

// down reports whether the link/node is dark at now, advancing the random
// schedule past any windows that elapsed unobserved.
func (s *outageState) down(now sim.Cycle) bool {
	for _, w := range s.forced {
		if now >= w.from && now < w.until {
			return true
		}
	}
	if s.rng == nil {
		return false
	}
	for now >= s.nextDown {
		s.downUntil = s.nextDown + s.sample(s.meanDown)
		s.nextDown = s.downUntil + s.sample(s.meanUp)
		*s.count++
	}
	return now < s.downUntil
}

// outageModel holds the per-undirected-link and per-node outage schedules.
type outageModel struct {
	links [][]*outageState // [lo][hi], lo < hi
	nodes []*outageState
}

// newOutageModel builds the schedules for fabric f. A zero config yields
// an all-up model that only scripted windows can darken.
func newOutageModel(f *Fabric, cfg config.OutageProfile) *outageModel {
	n, stats := f.nodes, &f.stats
	m := &outageModel{
		links: make([][]*outageState, n),
		nodes: make([]*outageState, n),
	}
	for lo := 0; lo < n; lo++ {
		m.links[lo] = make([]*outageState, n)
		for hi := lo + 1; hi < n; hi++ {
			// One schedule per undirected pair: a downed link kills both
			// directions, as a real dark fiber would.
			seed := cfg.Seed ^ int64(lo*n+hi+1)*0x6a09e667f3bcc909
			m.links[lo][hi] = f.newOutageState(seed, cfg.LinkMTBF, cfg.LinkOutage, &stats.LinkOutages)
		}
	}
	for i := 0; i < n; i++ {
		seed := cfg.Seed ^ int64(n*n+i+1)*0x6a09e667f3bcc909
		m.nodes[i] = f.newOutageState(seed, cfg.NodeMTBF, cfg.NodeOutage, &stats.NodeOutages)
	}
	return m
}

// link returns the state of the undirected (a, b) link.
func (m *outageModel) link(a, b NodeID) *outageState {
	if a > b {
		a, b = b, a
	}
	return m.links[a][b]
}

// blocked reports whether a protected message from src to dst is
// blackholed at now: the link between them is dark, or either endpoint is
// mid-reset.
func (m *outageModel) blocked(now sim.Cycle, src, dst NodeID) bool {
	return m.link(src, dst).down(now) || m.nodes[src].down(now) || m.nodes[dst].down(now)
}

// outage returns the fabric's outage model, creating an all-up one on
// first use so scripted outages work without a random profile.
func (f *Fabric) outage() *outageModel {
	if f.outages == nil {
		f.outages = newOutageModel(f, config.OutageProfile{})
	}
	return f.outages
}

// ForceLinkOutage scripts a deterministic outage of the undirected (a, b)
// link for [from, until): every protected message crossing it in the
// window is blackholed. Tests use it to stage exact outage scenarios; it
// composes with (and does not perturb) a random outage profile.
func (f *Fabric) ForceLinkOutage(a, b NodeID, from, until sim.Cycle) {
	f.outage().link(a, b).forced = append(f.outage().link(a, b).forced, window{from, until})
	f.stats.LinkOutages++
}

// ForceNodeOutage scripts a deterministic reset of node n for [from,
// until): all protected traffic to or from it is blackholed.
func (f *Fabric) ForceNodeOutage(n NodeID, from, until sim.Cycle) {
	f.outage().nodes[n].forced = append(f.outage().nodes[n].forced, window{from, until})
	f.stats.NodeOutages++
}
