package stats

import (
	"math/rand/v2"
	"slices"

	"divscrape/internal/statecodec"
)

// IDSet is a set of integer IDs — the distinct products a session has
// viewed — whose cost tracks what it holds rather than the most it ever
// held. Members live in a dense slice in insertion order, indexed by an
// open-addressed table with linear probing. Reset clears only the slots
// the members occupy, so a set recycled from a session that swept the
// whole catalogue costs its next, small session nothing extra; clearing a
// Go map, by contrast, walks every bucket the map ever grew.
//
// Slots are chosen by a seeded mixing hash: IDs come from request paths
// an attacker writes, and an unseeded hash would let a client pick IDs
// that pile onto one probe chain. The zero value is an empty set that
// allocates on first Add; NewIDSet pre-sizes one. Not safe for
// concurrent use.
type IDSet struct {
	ids   []int   // members, in insertion order
	slots []int32 // 0 = empty, else 1 + index into ids; len is a power of two
}

// idSetSeed keys the slot hash for the process; see IDSet.
var idSetSeed = rand.Uint64()

// NewIDSet returns an empty set with room for hint members before its
// first growth.
func NewIDSet(hint int) IDSet {
	return IDSet{
		ids:   make([]int, 0, hint),
		slots: make([]int32, slotsFor(hint)),
	}
}

// slotsFor returns the table size holding n members at a load factor of
// at most 3/4.
func slotsFor(n int) int {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return size
}

// idSlot returns id's first probe slot in a table of mask+1 slots
// (splitmix64's finaliser over the seeded ID).
func idSlot(id int, mask int) int {
	x := uint64(id) + idSetSeed
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x) & mask
}

// Add inserts id, reporting whether it was new.
func (s *IDSet) Add(id int) bool {
	if (len(s.ids)+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := idSlot(id, mask); ; i = (i + 1) & mask {
		switch e := s.slots[i]; {
		case e == 0:
			s.ids = append(s.ids, id)
			s.slots[i] = int32(len(s.ids))
			return true
		case s.ids[e-1] == id:
			return false
		}
	}
}

// grow doubles the table and re-inserts the members.
func (s *IDSet) grow() {
	s.slots = make([]int32, max(8, 2*len(s.slots)))
	mask := len(s.slots) - 1
	for n, id := range s.ids {
		i := idSlot(id, mask)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(n + 1)
	}
}

// Len returns the number of members.
func (s *IDSet) Len() int { return len(s.ids) }

// Reset empties the set in O(Len), keeping its storage: each member's
// slot is found by probing from its home slot to the slot holding its
// index, and only that slot is cleared. When the members fill a large
// share of the table, one clear of the whole table is cheaper.
func (s *IDSet) Reset() {
	if len(s.ids)*8 >= len(s.slots) {
		clear(s.slots)
		s.ids = s.ids[:0]
		return
	}
	mask := len(s.slots) - 1
	for n, id := range s.ids {
		i := idSlot(id, mask)
		for int(s.slots[i]) != n+1 {
			i = (i + 1) & mask
		}
		s.slots[i] = 0
	}
	s.ids = s.ids[:0]
}

// SnapshotInto writes the member count and then the members in
// ascending order, so equal sets always serialise to equal bytes.
func (s *IDSet) SnapshotInto(w *statecodec.Writer) {
	ids := slices.Clone(s.ids)
	slices.Sort(ids)
	w.Uint32(uint32(len(ids)))
	for _, id := range ids {
		w.Int(id)
	}
}

// RestoreFrom replaces the set's members with those SnapshotInto wrote.
// Duplicate IDs in the input collapse into one member; corrupt input
// leaves the reader's sticky error set and never panics.
func (s *IDSet) RestoreFrom(r *statecodec.Reader) error {
	s.Reset()
	n := r.Count(8)
	for i := 0; i < n; i++ {
		s.Add(r.Int())
	}
	return r.Err()
}
