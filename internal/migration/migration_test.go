package migration

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOwnerDefaultsToHome(t *testing.T) {
	p := NewPolicy(4)
	if got := p.Owner(7, 2); got != 2 {
		t.Errorf("owner=%v, want home 2", got)
	}
}

func TestMigrationAfterThreshold(t *testing.T) {
	p := NewPolicy(3)
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
	p := NewPolicy(1)
	if p.RecordAccess(7, 2, 2) {
		t.Error("local access triggered migration")
	}
}

func TestDisabledPolicy(t *testing.T) {
	p := NewPolicy(0)
	for i := 0; i < 100; i++ {
		if p.RecordAccess(7, 1, 2) {
			t.Fatal("disabled policy migrated")
		}
	}
}

func TestMigrateBackHomeClearsEntry(t *testing.T) {
	p := NewPolicy(1)
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
	p := NewPolicy(3)
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
		p := NewPolicy(2)
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

// TestReleasedPolicy checks Release: the released policy keeps its
// migration count, reports every page at home and panics on a write
// instead of touching a map the next policy may own, and a policy built
// after it starts from an empty map whatever the released one held.
func TestReleasedPolicy(t *testing.T) {
	var st Storage
	p := st.NewPolicy(2)
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
	q := st.NewPolicy(2)
	if q.RecordAccess(5, 1, 2) || q.Owner(5, 2) != 2 || len(q.pages) != 1 {
		t.Errorf("a new policy saw the released one's pages: %d entries", len(q.pages))
	}
}

// TestOversizedPageMapNotPooled checks that Release drops, rather than
// hands back to its Storage, a map past maxParkedPages, and hands back a
// cleared one within it.
func TestOversizedPageMapNotPooled(t *testing.T) {
	var st Storage
	for _, pages := range []int{maxParkedPages + 1, maxParkedPages} {
		p := st.NewPolicy(2)
		for page := PageID(0); page < PageID(pages); page++ {
			p.RecordAccess(page, 1, 2)
		}
		m := p.pages
		p.Release()
		parked := st.pages != nil
		if want := pages <= maxParkedPages; parked != want || (parked && len(m) != 0) || (!parked && len(m) != pages) {
			t.Errorf("%d pages: handed back %t with %d entries left; want %t", pages, parked, len(m), want)
		}
	}
}
