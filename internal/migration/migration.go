// Package migration implements the unified-memory page layer: page
// ownership, the access-counter page-migration policy (the Volta-like
// policy of Table III), and TLB-shootdown cost accounting. The machine
// layer consults it on every remote access to choose between direct block
// access and page migration (Section II-A).
package migration

import "fmt"

// PageID identifies a 4KB page in the unified address space. Its layout
// is | home (12b) | requester (8b) | index (24b) |: each (home, requester)
// pair owns a private page pool, which keeps page identities globally
// unique and encodes the home node in the ID, and the workload hands out
// each pool's indices from 0 up, so the policy keeps a pool as a dense
// slice.
type PageID uint64

const (
	indexBits     = 24
	requesterBits = 8
)

// PageOf builds the ID of page index of the pool that home keeps for
// requester.
func PageOf(home, requester Node, index uint32) PageID {
	return PageID(uint64(home)<<(requesterBits+indexBits) |
		uint64(requester)<<indexBits | uint64(index))
}

// Home returns the node the page is homed at.
func (p PageID) Home() Node { return Node(p >> (requesterBits + indexBits)) }

// Node mirrors interconnect.NodeID without importing it; 0 is the CPU.
// An int32 keeps pageState at 24 bytes.
type Node int32

// Policy tracks page ownership and per-(page, accessor) counters.
type Policy struct {
	threshold int
	nodes     int
	// st lends the pools; nil once Release handed them back.
	st *Storage
	// pools[home*nodes+requester][index] is the migration state of page
	// (home, requester, index), by value so a page costs no object of its
	// own. A pool grows to the highest index touched remotely or
	// migrated; pages past it, and pages of pools outside the system,
	// live at their home node with no accesses counted.
	pools      [][]pageState
	migrations uint64
}

// pageState is one page's migration state. The common case is a single
// remote accessor (the requester whose pool holds the page), stored
// inline; further accessors overflow to a map.
type pageState struct {
	overflow map[Node]int
	owner    Node
	cNode    Node
	cCount   int32
	hasOwner bool
}

// Storage keeps a released policy's cleared pools for the next policy
// built on it, so a cell does not regrow them from empty. The zero value
// is empty storage.
type Storage struct {
	pools [][]pageState
}

// maxParkedPages caps the page capacity, summed over the pools, that
// Release hands back. The pools of a `secbench -exp all` pass at scale
// 0.01 hold at most 3,553 pages in one cell; larger cells (5,456 in a
// 4-GPU `mm` cell at scale 0.25, 46,973 in a 16-GPU one at 0.5) are few
// and long, and their pools go to the collector instead of pinning their
// arrays between cells.
const maxParkedPages = 4096

// NewPolicy builds an access-counter migration policy among nodes nodes on
// fresh storage. threshold <= 0 disables migration entirely (pure direct
// block access).
func NewPolicy(nodes, threshold int) *Policy { return new(Storage).NewPolicy(nodes, threshold) }

// NewPolicy is the package-level NewPolicy on st's pools, lent until the
// policy's Release.
func (st *Storage) NewPolicy(nodes, threshold int) *Policy {
	pools := st.pools[:0]
	if cap(pools) < nodes*nodes {
		pools = append(pools[:cap(pools)], make([][]pageState, nodes*nodes-cap(pools))...)
	}
	st.pools = nil
	return &Policy{threshold: threshold, nodes: nodes, st: st, pools: pools[:nodes*nodes]}
}

// Release hands the pools, cleared, back to the policy's Storage, or
// drops them past maxParkedPages; machine.System calls it when a cell
// ends. Afterwards Owner reports every page at its home and RecordAccess
// and Migrate panic; Migrations keeps reporting the final count.
// Releasing twice is a no-op.
func (p *Policy) Release() {
	if p.st == nil {
		return
	}
	pages := 0
	for _, pool := range p.pools[:cap(p.pools)] {
		pages += cap(pool)
	}
	if pages <= maxParkedPages {
		for i, pool := range p.pools {
			clear(pool)
			p.pools[i] = pool[:0]
		}
		p.st.pools = p.pools
	}
	p.st, p.pools = nil, nil
}

// locate returns the index of page's pool in p.pools and the page's index
// in the pool; ok is false when the pool is not one of the system's.
func (p *Policy) locate(page PageID) (pool, index int, ok bool) {
	requester := int(page>>indexBits) & (1<<requesterBits - 1)
	pool = int(page.Home())*p.nodes + requester
	return pool, int(page & (1<<indexBits - 1)), requester < p.nodes && pool < len(p.pools)
}

// state returns page's state, growing its pool to hold it.
func (p *Policy) state(page PageID) *pageState {
	pool, index, ok := p.locate(page)
	if !ok {
		panic(fmt.Sprintf("migration: page %#x is outside a %d-node system", uint64(page), p.nodes))
	}
	pg := p.pools[pool]
	if index >= len(pg) {
		pg = append(pg, make([]pageState, index+1-len(pg))...)
		p.pools[pool] = pg
	}
	return &pg[index]
}

// Owner returns the page's current owner given its home node.
func (p *Policy) Owner(page PageID, home Node) Node {
	if pool, index, ok := p.locate(page); ok && index < len(p.pools[pool]) && p.pools[pool][index].hasOwner {
		return p.pools[pool][index].owner
	}
	return home
}

// RecordAccess notes one access by node to a page currently owned by owner
// and reports whether the access-counter policy says the page should now
// migrate to the accessor. Local accesses reset nothing and never migrate.
func (p *Policy) RecordAccess(page PageID, accessor, owner Node) (migrate bool) {
	if accessor == owner || p.threshold <= 0 {
		return false
	}
	st := p.state(page)
	if (st.cCount == 0 && st.overflow == nil) || st.cNode == accessor {
		st.cNode = accessor
		st.cCount++
		return int(st.cCount) >= p.threshold
	}
	if st.overflow == nil {
		st.overflow = make(map[Node]int)
	}
	st.overflow[accessor]++
	return st.overflow[accessor] >= p.threshold
}

// Migrate transfers ownership of the page to the new owner, resetting its
// counters. The caller is responsible for simulating the data movement and
// shootdown cost.
func (p *Policy) Migrate(page PageID, to Node, home Node) {
	*p.state(page) = pageState{owner: to, hasOwner: to != home}
	p.migrations++
}

// Migrations returns the number of migrations performed.
func (p *Policy) Migrations() uint64 { return p.migrations }

// String summarizes the policy state.
func (p *Policy) String() string {
	migrated := 0
	for _, pool := range p.pools {
		for _, st := range pool {
			if st.hasOwner {
				migrated++
			}
		}
	}
	return fmt.Sprintf("migration.Policy{threshold=%d, migrated=%d pages, total=%d migrations}",
		p.threshold, migrated, p.migrations)
}

// ShootdownCost is the TLB-shootdown stall in cycles charged to the
// requesting GPU when a page migrates (driver work, invalidations). The
// paper cites shootdowns as the key page-migration overhead.
const ShootdownCost = 2000
