package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueueConcurrentHammer drives Lease/Complete/Fail/Renew/ExpireLeases
// from many goroutines at once — with quorum verification on and an
// occasional divergent vote mixed in — and checks the one invariant that
// must hold under any interleaving: every waiter receives exactly one
// outcome. Run under -race this also pins the queue's locking.
func TestQueueConcurrentHammer(t *testing.T) {
	const (
		cells   = 32
		workers = 8
	)
	q := NewQueue(40 * time.Millisecond) // short TTL: real expiries under load
	q.ConfigureVerification(0.5)         // mixed verified/unverified population

	chans := make([]chan Outcome, cells)
	for i := range chans {
		chans[i] = make(chan Outcome, 1)
		q.Enqueue(testCell(t, int64(i+1)), EnqueueOptions{MaxAttempts: 4}, chans[i])
	}

	var delivered atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Collectors: one per waiter channel, asserting single delivery.
	for i, ch := range chans {
		wg.Add(1)
		go func(i int, ch chan Outcome) {
			defer wg.Done()
			select {
			case <-ch:
				delivered.Add(1)
			case <-time.After(30 * time.Second):
				t.Errorf("cell %d never received an outcome", i)
				return
			}
			select {
			case <-ch:
				t.Errorf("cell %d received a second outcome", i)
			case <-done:
			}
		}(i, ch)
	}

	// Expiry loop: requeues abandoned leases while the hammer runs.
	stopExpiry := make(chan struct{})
	var expiryWG sync.WaitGroup
	expiryWG.Add(1)
	go func() {
		defer expiryWG.Done()
		for {
			select {
			case <-stopExpiry:
				return
			case <-time.After(5 * time.Millisecond):
				q.ExpireLeases()
			}
		}
	}()

	// Worker goroutines: lease, then complete honestly, diverge, fail, or
	// abandon depending on a per-worker counter. Divergent and tied
	// quorums are resolved by the publisher itself (the arbiter role).
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			step := 0
			for delivered.Load() < cells {
				g, ok := q.Lease(name)
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				step++
				switch {
				case step%11 == 0:
					q.Fail(g.Lease, g.Fence, g.Digest, "injected failure")
				case step%7 == 0:
					// Abandon: walk away and let the TTL reap the lease.
				case step%5 == 0:
					// Divergent publish: self-consistent but wrong.
					q.Renew(g.Lease, g.Fence)
					out := q.Complete(honestPublish(t, g, fakeResult(666)))
					if out.Verdict == VerdictNeedArbiter {
						canonical := fakeResult(1)
						d, err := ResultDigest(canonical)
						if err != nil {
							t.Error(err)
							return
						}
						q.ResolveArbiter(g.Digest, d, canonical)
					}
				default:
					out := q.Complete(honestPublish(t, g, fakeResult(1)))
					if out.Verdict == VerdictNeedArbiter {
						canonical := fakeResult(1)
						d, err := ResultDigest(canonical)
						if err != nil {
							t.Error(err)
							return
						}
						q.ResolveArbiter(g.Digest, d, canonical)
					}
				}
			}
		}(w)
	}

	// Wait for all outcomes, then release the collectors' double-delivery
	// watch and the expiry loop.
	deadline := time.After(60 * time.Second)
	for delivered.Load() < cells {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d outcomes after 60s: %+v", delivered.Load(), cells, q.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	time.Sleep(20 * time.Millisecond) // window for any spurious second delivery
	close(done)
	close(stopExpiry)
	wg.Wait()
	expiryWG.Wait()

	st := q.Stats()
	if st.Completed+st.Failed != cells {
		t.Fatalf("Completed=%d Failed=%d, want them to sum to %d", st.Completed, st.Failed, cells)
	}
	if pending, leased := q.Depth(); pending != 0 || leased != 0 {
		t.Fatalf("queue depth = %d pending / %d leased after all outcomes delivered", pending, leased)
	}
}
