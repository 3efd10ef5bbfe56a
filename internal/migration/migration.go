// Package migration implements the unified-memory page layer: page
// ownership, the access-counter page-migration policy (the Volta-like
// policy of Table III), and TLB-shootdown cost accounting. The machine
// layer consults it on every remote access to choose between direct block
// access and page migration (Section II-A).
package migration

import "fmt"

// PageID identifies a 4KB page in the unified address space.
type PageID uint64

// Node mirrors interconnect.NodeID without importing it; 0 is the CPU.
type Node int

// Policy tracks page ownership and per-(page, accessor) counters.
type Policy struct {
	threshold int
	// pages holds the migration state of every page touched remotely or
	// migrated; absent pages live at their home node (encoded in the
	// address) with no accesses counted.
	pages      map[PageID]*pageState
	migrations uint64
}

// pageState is one page's migration state. The common case is a single
// remote accessor (the address layout gives each (requester, home) pair a
// private page pool), stored inline; further accessors overflow to a map.
type pageState struct {
	owner    Node
	hasOwner bool
	cNode    Node
	cCount   int
	overflow map[Node]int
}

// NewPolicy builds an access-counter migration policy. threshold <= 0
// disables migration entirely (pure direct block access).
func NewPolicy(threshold int) *Policy {
	return &Policy{threshold: threshold, pages: make(map[PageID]*pageState)}
}

// Owner returns the page's current owner given its home node.
func (p *Policy) Owner(page PageID, home Node) Node {
	if st := p.pages[page]; st != nil && st.hasOwner {
		return st.owner
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
		return st.cCount >= p.threshold
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
	st := p.state(page)
	st.hasOwner = to != home
	st.owner = to
	st.cCount = 0
	st.overflow = nil
	p.migrations++
}

// state returns the page's entry, creating it on first touch.
func (p *Policy) state(page PageID) *pageState {
	st := p.pages[page]
	if st == nil {
		st = &pageState{}
		p.pages[page] = st
	}
	return st
}

// Migrations returns the number of migrations performed.
func (p *Policy) Migrations() uint64 { return p.migrations }

// Threshold returns the configured access-count threshold.
func (p *Policy) Threshold() int { return p.threshold }

// String summarizes the policy state.
func (p *Policy) String() string {
	migrated := 0
	for _, st := range p.pages {
		if st.hasOwner {
			migrated++
		}
	}
	return fmt.Sprintf("migration.Policy{threshold=%d, migrated=%d pages, total=%d migrations}",
		p.threshold, migrated, p.migrations)
}

// ShootdownCost is the TLB-shootdown stall in cycles charged to the
// requesting GPU when a page migrates (driver work, invalidations). The
// paper cites shootdowns as the key page-migration overhead.
const ShootdownCost = 2000
