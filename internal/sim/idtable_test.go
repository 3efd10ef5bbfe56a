package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// idModel drives an IDTable and a map side by side and checks that they
// agree after every operation.
type idModel struct {
	t     testing.TB
	tab   IDTable[uint64]
	model map[uint64]uint64
}

func newIDModel(t testing.TB) *idModel {
	return &idModel{t: t, model: make(map[uint64]uint64)}
}

func (m *idModel) put(id, val uint64) {
	m.t.Helper()
	v, added := m.tab.Put(id)
	if _, had := m.model[id]; added == had {
		m.t.Fatalf("Put(%d) added = %t, but the model had it = %t", id, added, had)
	}
	if !added && *v != m.model[id] {
		m.t.Fatalf("Put(%d) of a live entry returned %d, want %d", id, *v, m.model[id])
	}
	*v = val
	m.model[id] = val
	m.check(id)
}

func (m *idModel) del(id uint64) {
	m.t.Helper()
	_, had := m.model[id]
	if got := m.tab.Delete(id); got != had {
		m.t.Fatalf("Delete(%d) = %t, want %t", id, got, had)
	}
	delete(m.model, id)
	m.check(id)
}

// check compares id's entry and the table's size with the model.
func (m *idModel) check(id uint64) {
	m.t.Helper()
	want, ok := m.model[id]
	switch v := m.tab.Get(id); {
	case ok && v == nil:
		m.t.Fatalf("Get(%d) = absent, want %d", id, want)
	case !ok && v != nil:
		m.t.Fatalf("Get(%d) = %d, want absent", id, *v)
	case ok && *v != want:
		m.t.Fatalf("Get(%d) = %d, want %d", id, *v, want)
	}
	if m.tab.Len() != len(m.model) {
		m.t.Fatalf("Len() = %d, want %d", m.tab.Len(), len(m.model))
	}
}

// checkAll compares every entry, through Get and through Range.
func (m *idModel) checkAll() {
	m.t.Helper()
	for id := range m.model {
		m.check(id)
	}
	seen := 0
	m.tab.Range(func(id uint64, v *uint64) {
		seen++
		if want, ok := m.model[id]; !ok || *v != want {
			m.t.Fatalf("Range visited %d = %d; model has %d (present %t)", id, *v, want, ok)
		}
	})
	if seen != len(m.model) {
		m.t.Fatalf("Range visited %d entries, want %d", seen, len(m.model))
	}
}

// run applies ops, two bytes each, to the model: the first picks the
// operation, the second an ID relative to the newest one issued. IDs are
// handed out in sequence, as requests, counters and batches are.
func (m *idModel) run(ops []byte, base uint64) {
	next := base
	var live []uint64
	for len(ops) >= 2 {
		op, arg := ops[0], uint64(ops[1])
		ops = ops[2:]
		switch op % 6 {
		case 0, 1: // a new ID
			m.put(next, next*3+1)
			live = append(live, next)
			next++
		case 2: // retire a live ID
			if len(live) > 0 {
				i := int(arg) % len(live)
				m.del(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		case 3: // look up a recent ID, live, retired or not issued yet
			m.check(next - arg)
		case 4: // overwrite a live ID
			if len(live) > 0 {
				m.put(live[int(arg)%len(live)], arg)
			}
		case 5: // delete a recent ID, possibly twice
			m.del(next - arg)
		}
	}
	m.checkAll()
}

// TestIDTableMatchesMap checks the table against a map over random put,
// get and delete sequences of sequential IDs, starting at 0 and near the
// top of the ID space.
func TestIDTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range []uint64{0, 1 << 48, ^uint64(0) - 300} {
		for round := 0; round < 50; round++ {
			ops := make([]byte, 2*(1+rng.Intn(400)))
			rng.Read(ops)
			newIDModel(t).run(ops, base)
		}
	}
}

// TestIDTableLongLivedEntry keeps one ID live while thousands of newer IDs
// come and go, as a request waiting out retransmissions does. Each newer
// ID that lands on the old one's slot must grow the table rather than
// evict or shadow it, and the table grows no larger than the live span
// needs.
func TestIDTableLongLivedEntry(t *testing.T) {
	for _, old := range []uint64{0, 5, 1 << 40} {
		m := newIDModel(t)
		m.put(old, 99)
		for id := old + 1; id < old+5000; id++ {
			m.put(id, id)
			if id >= old+3 {
				m.del(id - 2)
			}
		}
		m.checkAll()
		if s := m.tab.Slots(); s > 8192 {
			t.Errorf("old ID %d: %d slots for a live span of 5000 IDs", old, s)
		}
	}
}

// TestIDTableStaleGet checks the retransmitted-response and duplicate-ACK
// case: after an ID is deleted, neither the empty slot nor a newer ID now
// in it answers for the old ID, and a second delete reports nothing.
func TestIDTableStaleGet(t *testing.T) {
	var tab IDTable[int]
	if tab.Get(0) != nil || tab.Delete(0) {
		t.Fatal("an empty table answered for ID 0")
	}
	v, _ := tab.Put(3)
	*v = 30
	if tab.Get(0) != nil || tab.Get(3+uint64(tab.Slots())) != nil {
		t.Fatal("an empty slot, or one holding another ID, answered for ID 0 or an alias")
	}
	if !tab.Delete(3) || tab.Delete(3) || tab.Get(3) != nil {
		t.Fatal("a deleted ID is still found, or deleted twice")
	}
	alias := 3 + uint64(tab.Slots())
	v, added := tab.Put(alias)
	if !added || *v != 30 {
		t.Fatalf("Put(%d) into the freed slot: added %t, value %d; want a new entry keeping the slot's value 30", alias, added, *v)
	}
	*v = 31
	if tab.Get(3) != nil {
		t.Fatal("a stale get found the ID now holding the slot")
	}
	if got := tab.Get(alias); got == nil || *got != 31 || tab.Len() != 1 {
		t.Fatalf("Get(%d) after a stale get: %v with %d live", alias, got, tab.Len())
	}
}

// TestIDTableReset checks reuse after Reset and Clear: both empty the
// table and keep its slots, Reset keeps the values for the next IDs to
// land in their slots, and Clear zeroes them.
func TestIDTableReset(t *testing.T) {
	m := newIDModel(t)
	m.run([]byte{0, 0, 0, 0, 0, 0, 1, 0, 2, 1, 0, 0}, 100)
	slots := m.tab.Slots()
	m.tab.Reset()
	m.model = map[uint64]uint64{}
	m.checkAll()
	if m.tab.Slots() != slots {
		t.Fatalf("Reset changed the slots from %d to %d", slots, m.tab.Slots())
	}
	if v, added := m.tab.Put(100); !added || *v != 301 {
		t.Fatalf("Put(100) after Reset: added %t, value %d; want the slot's old value 301", added, *v)
	}
	m.model[100] = 301
	m.run([]byte{0, 0, 3, 1, 2, 0, 1, 0, 5, 2, 4, 3, 0, 0}, 200)
	m.tab.Clear()
	m.model = map[uint64]uint64{}
	m.checkAll()
	if v, _ := m.tab.Put(100); *v != 0 {
		t.Fatalf("Put(100) after Clear holds %d, want 0", *v)
	}
}

// FuzzIDTable runs the map model over fuzzed operation sequences; the
// first 8 bytes choose the first ID.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 250, 0, 0, 1, 0, 0, 0, 4, 1, 5, 0, 3, 4})
	f.Add(append(make([]byte, 8), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 3, 9, 5, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		newIDModel(t).run(data[8:], binary.BigEndian.Uint64(data))
	})
}
