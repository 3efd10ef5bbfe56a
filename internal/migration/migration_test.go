package migration

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOwnerDefaultsToHome(t *testing.T) {
	p := NewPolicy(testNodes, 4)
	if got := p.Owner(7, 2); got != 2 {
		t.Errorf("owner=%v, want home 2", got)
	}
}

func TestMigrationAfterThreshold(t *testing.T) {
	p := NewPolicy(testNodes, 3)
	for i := 0; i < 2; i++ {
		if p.RecordAccess(7, 1, 2) {
			t.Fatalf("migrated after %d accesses, threshold 3", i+1)
		}
	}
	if !p.RecordAccess(7, 1, 2) {
		t.Fatal("no migration at threshold")
	}
	p.Migrate(7, 1, 2)
	if got := p.Owner(7, 2); got != 1 {
		t.Errorf("owner after migration=%v, want 1", got)
	}
	if p.Migrations() != 1 {
		t.Errorf("migrations=%d, want 1", p.Migrations())
	}
}

func TestLocalAccessNeverMigrates(t *testing.T) {
	p := NewPolicy(testNodes, 1)
	if p.RecordAccess(7, 2, 2) {
		t.Error("local access triggered migration")
	}
}

func TestDisabledPolicy(t *testing.T) {
	p := NewPolicy(testNodes, 0)
	for i := 0; i < 100; i++ {
		if p.RecordAccess(7, 1, 2) {
			t.Fatal("disabled policy migrated")
		}
	}
}

func TestMigrateBackHomeClearsEntry(t *testing.T) {
	p := NewPolicy(testNodes, 1)
	p.Migrate(7, 1, 2)
	if p.Owner(7, 2) != 1 {
		t.Fatal("migration to 1 failed")
	}
	p.Migrate(7, 2, 2)
	if p.Owner(7, 2) != 2 {
		t.Error("migration back home failed")
	}
}

func TestCountersResetOnMigration(t *testing.T) {
	p := NewPolicy(testNodes, 3)
	p.RecordAccess(7, 1, 2)
	p.RecordAccess(7, 1, 2)
	p.Migrate(7, 3, 2) // someone else wins the page
	// Accessor 1's progress toward the threshold must restart.
	if p.RecordAccess(7, 1, 3) {
		t.Error("stale counter survived migration")
	}
}

// Property: ownership is always the last migration target (or home), and
// migration count equals the number of Migrate calls.
func TestOwnershipProperty(t *testing.T) {
	prop := func(moves []uint8) bool {
		p := NewPolicy(testNodes, 2)
		home := Node(0)
		want := home
		for _, m := range moves {
			to := Node(m % 5)
			p.Migrate(42, to, home)
			want = to
		}
		return p.Owner(42, home) == want && p.Migrations() == uint64(len(moves))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// testNodes is the node count of the policies under test; their pages
// are pool 0's (home 0, requester 0) unless a test says otherwise.
const testNodes = 5

// touched counts the pages of pools whose state is not the zero state.
func touched(pools ...[]pageState) int {
	n := 0
	for _, pool := range pools {
		for _, st := range pool {
			if st.overflow != nil || st.owner != 0 || st.cNode != 0 || st.cCount != 0 || st.hasOwner {
				n++
			}
		}
	}
	return n
}

// TestReleasedPolicy checks Release: the released policy keeps its
// migration count, reports every page at home and panics on a write
// instead of touching pools the next policy may own, and a policy built
// after it starts from empty pools whatever the released one held.
func TestReleasedPolicy(t *testing.T) {
	var st Storage
	p := st.NewPolicy(testNodes, 2)
	for page := PageID(0); page < 100; page++ {
		p.RecordAccess(page, 1, 2)
		p.RecordAccess(page, 3, 2) // a second accessor overflows
	}
	p.RecordAccess(5, 1, 2)
	p.Migrate(5, 1, 2)
	p.Release()
	p.Release() // a second release is a no-op
	if p.Migrations() != 1 || p.Owner(5, 2) != 2 {
		t.Errorf("released policy: migrations=%d owner=%v, want 1 and home 2", p.Migrations(), p.Owner(5, 2))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RecordAccess on a released policy did not panic")
			}
		}()
		p.RecordAccess(9, 1, 2)
	}()
	q := st.NewPolicy(testNodes, 2)
	if q.RecordAccess(5, 1, 2) || q.Owner(5, 2) != 2 || touched(q.pools...) != 1 {
		t.Errorf("a new policy saw the released one's pages: %d touched", touched(q.pools...))
	}
}

// TestOversizedPageMapNotPooled checks that Release drops, rather than
// hands back to its Storage, pools whose page capacity adds up past
// maxParkedPages, and hands back cleared ones within it.
func TestOversizedPageMapNotPooled(t *testing.T) {
	var st Storage
	for _, pages := range []int{maxParkedPages + 1, maxParkedPages} {
		p := st.NewPolicy(testNodes, 2)
		// Two pools share the capacity: home 0's pool for requester 1 and
		// home 2's for requester 3.
		a, b := PageOf(0, 1, 0), PageOf(2, 3, 0)
		pa, _, _ := p.locate(a)
		pb, _, _ := p.locate(b)
		p.pools[pa] = make([]pageState, pages/2)
		p.pools[pb] = make([]pageState, pages-pages/2)
		for page := PageID(0); page < PageID(pages/2); page++ {
			p.RecordAccess(a+page, 1, 0)
			p.RecordAccess(b+page, 3, 2)
		}
		pools := p.pools
		p.Release()
		parked := st.pools != nil
		if want := pages <= maxParkedPages; parked != want {
			t.Errorf("%d pages: handed back %t, want %t", pages, parked, want)
		}
		for i, pool := range pools {
			if left := touched(pool[:cap(pool)]); parked && (len(pool) != 0 || left != 0) {
				t.Errorf("%d pages: pool %d handed back with %d entries, %d of them touched; want it cleared", pages, i, len(pool), left)
			}
		}
		if !parked && touched(pools[pa]) != pages/2 {
			t.Errorf("%d pages: a dropped pool was cleared", pages)
		}
	}
}
