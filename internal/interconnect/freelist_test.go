package interconnect

import (
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
	if f.Outstanding() != 0 || !onList(&f.msgs, m) {
		t.Fatalf("delivered message: outstanding=%d, on list=%t; want 0, true", f.Outstanding(), onList(&f.msgs, m))
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
	if len(r.msgs) != 1 || r.msgs[0] != kept || onList(&f.msgs, kept) || f.Outstanding() != 1 {
		t.Fatalf("retained message: on list=%t, outstanding=%d; want false, 1", onList(&f.msgs, kept), f.Outstanding())
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
	if onList(&f.msgs, lit) || onList(&f.msgs, clone) || lit.Kind != KindReadReq {
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
// afterwards is dropped: it never enters the list the fabric handed back
// to its Storage, which the next fabric takes.
func TestFreeAfterReleaseStaysOut(t *testing.T) {
	var st Storage
	e := sim.NewEngine()
	a := st.NewFabric(e, testConfig(2))
	r := &retainer{}
	a.Register(1, nopDeliverer{})
	a.Register(2, r)
	spare := make([]*Message, 8)
	for i := range spare {
		spare[i] = a.AcquireMessage()
	}
	for _, m := range spare {
		a.FreeMessage(m)
	}
	held := secMsg(a, 1, 2)
	a.Send(held)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	a.Release()
	a.FreeMessage(held)
	if st.msgs.n == 0 || onList(&st.msgs, held) {
		t.Fatalf("released fabric handed back %d messages, the late free among them: %t; want some, false",
			st.msgs.n, onList(&st.msgs, held))
	}
	if a.Outstanding() != 0 {
		t.Errorf("outstanding=%d after the late free, want 0", a.Outstanding())
	}
	b := st.NewFabric(sim.NewEngine(), testConfig(2))
	for i := 0; i < 64; i++ {
		if b.AcquireMessage() == held {
			t.Fatal("the next fabric handed out a message freed after its owner's Release")
		}
	}
}

// TestReleaseTrimsMessageList frees more messages than a Storage keeps
// and checks that Release hands back exactly maxParkedMsgs of them,
// zeroed and linked, with a deliverer table that pins no deliverer, and
// that the next fabric on the Storage hands those messages out before
// allocating.
func TestReleaseTrimsMessageList(t *testing.T) {
	var st Storage
	f := st.NewFabric(sim.NewEngine(), testConfig(2))
	f.Register(1, nopDeliverer{})
	f.Register(2, &retainer{})
	out := make([]*Message, maxParkedMsgs+100)
	for i := range out {
		out[i] = f.AcquireMessage()
		out[i].ReqID = uint64(i + 1)
	}
	for _, m := range out {
		f.FreeMessage(m)
	}
	f.Release()
	n := 0
	parked := map[*Message]bool{}
	for m := st.msgs.head; m != nil; m = m.next {
		if m.ReqID != 0 || m.pooled {
			t.Fatalf("parked message %d not zeroed", n)
		}
		parked[m] = true
		n++
	}
	if n != maxParkedMsgs || st.msgs.n != maxParkedMsgs {
		t.Fatalf("storage links %d messages and counts %d; want %d", n, st.msgs.n, maxParkedMsgs)
	}
	for i, d := range st.deliverers[:cap(st.deliverers)] {
		if d != nil {
			t.Errorf("storage still holds node %d's deliverer", i)
		}
	}
	g := st.NewFabric(sim.NewEngine(), testConfig(2))
	for i := 0; i < maxParkedMsgs; i++ {
		if m := g.AcquireMessage(); !parked[m] {
			t.Fatalf("message %d: the next fabric allocated while %d parked ones were left", i, maxParkedMsgs-i)
		}
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
