package migration

import "testing"

// visit is one remote access the policy benchmarks replay.
type visit struct {
	page      PageID
	requester Node
}

// benchVisits returns a 16-GPU system's node count and one access to
// each of 256 pages of every pool a GPU reads remotely (every (home,
// requester) pair with home != requester), page index fastest.
func benchVisits() (int, []visit) {
	const nodes, pages = 17, 256
	var vs []visit
	for home := Node(0); home < nodes; home++ {
		for requester := Node(1); requester < nodes; requester++ {
			if requester == home {
				continue
			}
			for index := uint32(0); index < pages; index++ {
				vs = append(vs, visit{PageOf(home, requester, index), requester})
			}
		}
	}
	return nodes, vs
}

// BenchmarkPolicyOwner times one Owner lookup on a 16-GPU policy with
// every remotely read pool populated and one page in eight migrated to
// its requester, as machine's issue path runs it once per operation.
func BenchmarkPolicyOwner(b *testing.B) {
	nodes, vs := benchVisits()
	p := NewPolicy(nodes, 4)
	for i, v := range vs {
		p.RecordAccess(v.page, v.requester, v.page.Home())
		if i%8 == 0 {
			p.Migrate(v.page, v.requester, v.page.Home())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	owned := 0
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		if p.Owner(v.page, v.page.Home()) == v.requester {
			owned++
		}
	}
	if b.N >= len(vs) && owned == 0 {
		b.Fatal("no lookup found a migrated page")
	}
}

// BenchmarkRecordAccess times one access-counter update on a 16-GPU
// policy whose pools are already grown, with a threshold no page
// reaches, as every remote access to a page not yet migrating records
// one.
func BenchmarkRecordAccess(b *testing.B) {
	nodes, vs := benchVisits()
	p := NewPolicy(nodes, 1<<30)
	for _, v := range vs {
		p.RecordAccess(v.page, v.requester, v.page.Home())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vs[i%len(vs)]
		if p.RecordAccess(v.page, v.requester, v.page.Home()) {
			b.Fatal("a page reached the threshold")
		}
	}
}
