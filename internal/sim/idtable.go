package sim

// IDTable is a direct-mapped table from sequence-numbered IDs to values:
// the entry for id lives in slot id & (slots-1), and the ID stored in the
// slot confirms a hit. The simulator names what it tracks per message with
// per-channel sequence numbers (request IDs, MsgCTRs, BatchIDs), so the
// live entries of one table span a short window of IDs and each finds a
// slot of its own with no hashing or probing, much as the receiver's
// index-addressed MsgMAC storage does in hardware (Figure 20).
//
// A Put whose slot holds another live ID doubles the table, as often as it
// takes for every live ID to have a slot of its own, so a table grows to
// the span of its live IDs and never shrinks.
//
// A slot keeps its value when its entry is deleted, and Put hands that
// value to the next ID to land there, so a value that owns buffers is
// reused in place. Values move only when the table grows; what deleted
// entries left is dropped then. The zero value is an empty table.
type IDTable[V any] struct {
	slots []idSlot[V]
	live  int
}

type idSlot[V any] struct {
	id  uint64
	set bool // holds a live entry; an empty slot matches no ID, 0 included
	val V
}

// minIDSlots is the size of a table's first slot array: many tables (an
// idle stream's MAC store, a quiet peer's units) never hold more than one
// entry.
const minIDSlots = 1

// Get returns id's value, or nil when id is absent. The pointer is valid
// until the next Put.
func (t *IDTable[V]) Get(id uint64) *V {
	if len(t.slots) == 0 {
		return nil
	}
	s := &t.slots[id&uint64(len(t.slots)-1)]
	if !s.set || s.id != id {
		return nil
	}
	return &s.val
}

// Put returns id's value, adding id when absent; added reports that it
// was. An added entry starts with the value its slot last held: zero in a
// new slot, or what a deleted entry left. The pointer is valid until the
// next Put.
func (t *IDTable[V]) Put(id uint64) (v *V, added bool) {
	for {
		if len(t.slots) > 0 {
			s := &t.slots[id&uint64(len(t.slots)-1)]
			if !s.set {
				s.id, s.set = id, true
				t.live++
				return &s.val, true
			}
			if s.id == id {
				return &s.val, false
			}
		}
		t.grow()
	}
}

// grow doubles the slot array until every live entry has a slot of its
// own.
func (t *IDTable[V]) grow() {
	size := max(2*len(t.slots), minIDSlots)
	for {
		slots := make([]idSlot[V], size)
		mask := uint64(size - 1)
		fits := true
		for i := range t.slots {
			s := &t.slots[i]
			if !s.set {
				continue
			}
			d := &slots[s.id&mask]
			if d.set {
				fits = false
				break
			}
			*d = *s
		}
		if fits {
			t.slots = slots
			return
		}
		size *= 2
	}
}

// Delete removes id, reporting whether it was present. Its slot keeps the
// value.
func (t *IDTable[V]) Delete(id uint64) bool {
	if len(t.slots) == 0 {
		return false
	}
	s := &t.slots[id&uint64(len(t.slots)-1)]
	if !s.set || s.id != id {
		return false
	}
	s.set = false
	t.live--
	return true
}

// Len returns the number of live entries.
func (t *IDTable[V]) Len() int { return t.live }

// Slots returns the size of the slot array, which bounds the memory a
// recycled table keeps.
func (t *IDTable[V]) Slots() int { return len(t.slots) }

// Range calls f on every live entry in slot order, which is not ID order:
// a caller whose results depend on the order sorts what it collects. f
// may Delete entries but must not Put.
func (t *IDTable[V]) Range(f func(id uint64, v *V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.set {
			f(s.id, &s.val)
		}
	}
}

// Reset deletes every entry, keeping the slots and their values. An
// empty table costs nothing to reset, however many slots it has.
func (t *IDTable[V]) Reset() {
	if t.live == 0 {
		return
	}
	for i := range t.slots {
		t.slots[i].set = false
	}
	t.live = 0
}

// Clear deletes every entry and zeroes every value, so a table of
// pointers keeps nothing reachable.
func (t *IDTable[V]) Clear() {
	clear(t.slots)
	t.live = 0
}
