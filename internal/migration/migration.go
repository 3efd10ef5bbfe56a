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
// An int32 keeps pageState at 24 bytes.
type Node int32

// Policy tracks page ownership and per-(page, accessor) counters.
type Policy struct {
	threshold int
	// st lends the page map; nil once Release handed it back.
	st *Storage
	// pages holds the migration state of every page touched remotely or
	// migrated, by value so a touched page costs no object of its own;
	// absent pages live at their home node (encoded in the address) with
	// no accesses counted.
	pages      map[PageID]pageState
	migrations uint64
}

// pageState is one page's migration state. The common case is a single
// remote accessor (the address layout gives each (requester, home) pair a
// private page pool), stored inline; further accessors overflow to a map.
type pageState struct {
	overflow map[Node]int
	owner    Node
	cNode    Node
	cCount   int32
	hasOwner bool
}

// Storage keeps a released policy's cleared page map for the next policy
// built on it: a cleared map keeps its groups, so a cell does not regrow
// one from empty. The zero value is empty storage.
type Storage struct {
	pages map[PageID]pageState
}

// maxParkedPages caps the pages of a map that Release hands back. Pages
// are never deleted, so a map's size is its peak. A `secbench -exp all`
// pass at scale 0.01 touches at most 1,625 pages in one cell; larger
// cells (3,703 pages in a 4-GPU `mm` cell at scale 0.25) are few and
// long, and their maps go to the collector instead of pinning their
// groups between cells.
const maxParkedPages = 2048

// NewPolicy builds an access-counter migration policy on fresh storage.
// threshold <= 0 disables migration entirely (pure direct block access).
func NewPolicy(threshold int) *Policy { return new(Storage).NewPolicy(threshold) }

// NewPolicy is the package-level NewPolicy on st's page map, lent until
// the policy's Release.
func (st *Storage) NewPolicy(threshold int) *Policy {
	pages := st.pages
	if pages == nil {
		pages = make(map[PageID]pageState)
	}
	st.pages = nil
	return &Policy{threshold: threshold, st: st, pages: pages}
}

// Release hands the page map, cleared, back to the policy's Storage, or
// drops it past maxParkedPages; machine.System calls it when a cell ends.
// Afterwards Owner reports every page at its home and RecordAccess and
// Migrate panic; Migrations keeps reporting the final count. Releasing
// twice is a no-op.
func (p *Policy) Release() {
	if p.st == nil {
		return
	}
	if len(p.pages) <= maxParkedPages {
		clear(p.pages)
		p.st.pages = p.pages
	}
	p.st, p.pages = nil, nil
}

// Owner returns the page's current owner given its home node.
func (p *Policy) Owner(page PageID, home Node) Node {
	if st := p.pages[page]; st.hasOwner {
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
	st := p.pages[page]
	if (st.cCount == 0 && st.overflow == nil) || st.cNode == accessor {
		st.cNode = accessor
		st.cCount++
		p.pages[page] = st
		return int(st.cCount) >= p.threshold
	}
	if st.overflow == nil {
		st.overflow = make(map[Node]int)
		p.pages[page] = st
	}
	st.overflow[accessor]++
	return st.overflow[accessor] >= p.threshold
}

// Migrate transfers ownership of the page to the new owner, resetting its
// counters. The caller is responsible for simulating the data movement and
// shootdown cost.
func (p *Policy) Migrate(page PageID, to Node, home Node) {
	p.pages[page] = pageState{owner: to, hasOwner: to != home}
	p.migrations++
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
