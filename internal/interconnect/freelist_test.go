package interconnect

import (
	"sync"
	"testing"

	"secmgpu/internal/sim"
)

// onList reports whether m is on list l.
func onList(l *msgList, m *Message) bool {
	for x := l.head; x != nil; x = x.next {
		if x == m {
			return true
		}
	}
	return false
}

// retainer takes ownership of every message delivered to it.
type retainer struct{ msgs []*Message }

func (r *retainer) Deliver(_ sim.Cycle, m *Message) {
	m.Retain()
	r.msgs = append(r.msgs, m)
}

// TestFreeListReusesMessages checks the free protocol on a live fabric:
// a delivered message goes back on the list and is handed out again,
// zeroed; a retained one stays out until the receiver frees it; literal
// and cloned messages never enter the list; and a second free of the
// same message is a no-op.
func TestFreeListReusesMessages(t *testing.T) {
	e, f := testFabric(t, 2)
	r := &retainer{}
	f.Register(1, nopDeliverer{})
	f.Register(2, r)

	m := secMsg(f, 2, 1)
	m.ReqID = 7
	f.Send(m)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Outstanding() != 0 || !onList(f.msgs, m) {
		t.Fatalf("delivered message: outstanding=%d, on list=%t; want 0, true", f.Outstanding(), onList(f.msgs, m))
	}
	if again := f.AcquireMessage(); again != m || again.ReqID != 0 || again.Sec != nil || again.next != nil {
		t.Fatalf("reacquired %p (ReqID %d, Sec %v), want the freed %p zeroed", again, again.ReqID, again.Sec, m)
	}
	f.FreeMessage(m)

	kept := secMsg(f, 1, 2)
	f.Send(kept)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.msgs) != 1 || r.msgs[0] != kept || onList(f.msgs, kept) || f.Outstanding() != 1 {
		t.Fatalf("retained message: on list=%t, outstanding=%d; want false, 1", onList(f.msgs, kept), f.Outstanding())
	}
	n := f.msgs.n
	f.FreeMessage(kept)
	f.FreeMessage(kept)
	if f.Outstanding() != 0 || f.msgs.n != n+1 {
		t.Errorf("after freeing the retained message twice: outstanding=%d, list %d; want 0, %d", f.Outstanding(), f.msgs.n, n+1)
	}

	lit := &Message{Kind: KindReadReq, Src: 1, Dst: 2}
	clone := f.AcquireMessage().Clone()
	f.FreeMessage(lit)
	f.FreeMessage(clone)
	if onList(f.msgs, lit) || onList(f.msgs, clone) || lit.Kind != KindReadReq {
		t.Error("a literal or cloned message entered the free list")
	}
}

// TestReleasedFabricPanics checks that a released fabric fails loudly
// instead of handing out or sending messages from a list another fabric
// may now own.
func TestReleasedFabricPanics(t *testing.T) {
	_, f := testFabric(t, 2)
	f.Register(2, nopDeliverer{})
	m := f.AcquireMessage()
	m.Src, m.Dst = 1, 2
	f.Release()
	f.Release() // a second release is a no-op
	for name, fn := range map[string]func(){
		"AcquireMessage": func() { f.AcquireMessage() },
		"Send":           func() { f.Send(m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released fabric did not panic", name)
				}
			}()
			fn()
		}()
	}
	if f.Outstanding() != 1 {
		t.Errorf("released fabric reports %d outstanding, want the 1 acquired", f.Outstanding())
	}
}

// TestFreeAfterReleaseStaysOut checks that a message still out when its
// fabric is released (in flight, or retained by a receiver) and freed
// afterwards is dropped: it never enters the list the fabric parked, which
// the next fabric takes.
func TestFreeAfterReleaseStaysOut(t *testing.T) {
	e, a := testFabric(t, 2)
	r := &retainer{}
	a.Register(1, nopDeliverer{})
	a.Register(2, r)
	for i := 0; i < 8; i++ {
		a.FreeMessage(a.AcquireMessage())
	}
	held := secMsg(a, 1, 2)
	a.Send(held)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	parked := a.msgs
	a.Release()
	a.FreeMessage(held)
	if onList(parked, held) {
		t.Fatal("a message freed after Release entered the parked list")
	}
	if a.Outstanding() != 0 {
		t.Errorf("outstanding=%d after the late free, want 0", a.Outstanding())
	}
	_, b := testFabric(t, 2)
	if onList(b.msgs, held) {
		t.Fatal("a message freed after its fabric's Release entered the next fabric's list")
	}
	for i := 0; i < 64; i++ {
		if b.AcquireMessage() == held {
			t.Fatal("the next fabric handed out a message freed after its owner's Release")
		}
	}
}

// freedList returns a list of exactly n zeroed messages, acquired from f
// on an empty list and freed back, detached from f.
func freedList(f *Fabric, n int) *msgList {
	f.msgs = &msgList{}
	out := make([]*Message, n)
	for i := range out {
		out[i] = f.AcquireMessage()
		out[i].ReqID = uint64(i + 1)
	}
	for _, m := range out {
		f.FreeMessage(m)
	}
	l := f.msgs
	f.msgs = &msgList{}
	return l
}

// TestShelfRespectsBudget parks lists on a shelf past its budget and
// checks that it holds at most maxParkedMsgs zeroed messages in all,
// trimming the list that overflows and dropping one with no room left,
// and that take hands the lists back with the count kept right.
func TestShelfRespectsBudget(t *testing.T) {
	_, f := testFabric(t, 2)
	var s msgShelf
	s.park(freedList(f, 100))
	big := freedList(f, maxParkedMsgs)
	s.park(big)
	if s.n != maxParkedMsgs || len(s.lists) != 2 || big.n != maxParkedMsgs-100 {
		t.Fatalf("shelf holds %d messages in %d lists (second list %d); want %d in 2 (%d)",
			s.n, len(s.lists), big.n, maxParkedMsgs, maxParkedMsgs-100)
	}
	n := 0
	for m := big.head; m != nil; m = m.next {
		if m.ReqID != 0 || m.pooled {
			t.Fatalf("parked message %d not zeroed", n)
		}
		n++
	}
	if n != big.n {
		t.Errorf("trimmed list links %d messages, counts %d", n, big.n)
	}
	s.park(freedList(f, 10))
	if s.n != maxParkedMsgs || len(s.lists) != 2 {
		t.Errorf("a full shelf took a list: %d messages in %d lists", s.n, len(s.lists))
	}
	if l := s.take(); l != big || s.n != 100 {
		t.Errorf("take returned a list of %d, shelf left with %d; want the last parked, 100", l.n, s.n)
	}
	s.take()
	if l := s.take(); l.n != 0 || l.head != nil || s.n != 0 {
		t.Errorf("an empty shelf handed out %d messages", l.n)
	}
}

// TestShelfParallel builds, drives and releases fabrics on several
// goroutines at once, as sweep workers do, so lists move between
// goroutines through the shelf; run under -race it checks the hand-over.
// Every fabric must balance, and the shelf must stay within its budget.
func TestShelfParallel(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := testConfig(2)
				cfg.PCIeLatency, cfg.NVLinkLatency = 0, 0
				e := sim.NewEngine()
				f := NewFabric(e, cfg)
				f.Register(1, nopDeliverer{})
				f.Register(2, nopDeliverer{})
				for k := 0; k < 10*(w+i%7); k++ {
					f.Send(secMsg(f, 1, 2))
				}
				if _, err := e.Run(); err != nil {
					t.Error(err)
				}
				if f.Outstanding() != 0 {
					t.Errorf("worker %d fabric %d: %d outstanding after drain", w, i, f.Outstanding())
				}
				e.Release()
				f.Release()
			}
		}(w)
	}
	wg.Wait()
	parkedMsgs.mu.Lock()
	defer parkedMsgs.mu.Unlock()
	if parkedMsgs.n > maxParkedMsgs {
		t.Errorf("shelf holds %d messages, budget %d", parkedMsgs.n, maxParkedMsgs)
	}
}

// TestMessageSize pins Message at 168 bytes, in the 176-byte size class:
// one more word would move every message, and every parked list, to the
// 192-byte class.
func TestMessageSize(t *testing.T) {
	if messageBytes != 168 {
		t.Errorf("Message is %d bytes, want 168", messageBytes)
	}
}
