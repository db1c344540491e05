package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"divscrape/internal/statecodec"
)

// mapEncoding is the encoding the detectors wrote before IDSet existed:
// the count, then the members sorted ascending. IDSet must keep it
// byte for byte, or old checkpoints would stop restoring.
func mapEncoding(m map[int]struct{}) []byte {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	w := statecodec.NewWriter()
	w.Uint32(uint32(len(ids)))
	for _, id := range ids {
		w.Int(id)
	}
	return w.Bytes()
}

func setEncoding(s *IDSet) []byte {
	w := statecodec.NewWriter()
	s.SnapshotInto(w)
	return w.Bytes()
}

// checkAgainst fails unless s and the reference map hold the same
// members and encode to the same bytes.
func checkAgainst(t *testing.T, s *IDSet, ref map[int]struct{}) {
	t.Helper()
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", s.Len(), len(ref))
	}
	if got, want := setEncoding(s), mapEncoding(ref); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes differ from the sorted map encoding:\n got %x\nwant %x", got, want)
	}
}

func TestIDSetAddLenReset(t *testing.T) {
	for _, s := range []IDSet{{}, NewIDSet(16)} {
		ref := map[int]struct{}{}
		for round := 0; round < 3; round++ {
			for i := 0; i < 500; i++ {
				id := (i * 7919) % 311 // repeats once i passes 311
				_, had := ref[id]
				ref[id] = struct{}{}
				if got := s.Add(id); got == had {
					t.Fatalf("round %d: Add(%d) = %v, but the id was present: %v", round, id, got, had)
				}
			}
			checkAgainst(t, &s, ref)
			s.Reset()
			clear(ref)
			checkAgainst(t, &s, ref)
		}
	}
}

// TestIDSetResetAfterPeakLeavesTableEmpty grows a set past 10k members,
// resets it through both the sparse and the dense path, and checks that
// no slot survives — a stale slot would make the next session see
// members it never added.
func TestIDSetResetAfterPeakLeavesTableEmpty(t *testing.T) {
	s := NewIDSet(16)
	for i := 0; i < 12000; i++ {
		s.Add(i * 3)
	}
	s.Reset() // dense: members fill more than 1/8 of the table
	for i := 0; i < 100; i++ {
		s.Add(-i)
	}
	s.Reset() // sparse: 100 members in a table sized for 12k
	for i, e := range s.slots {
		if e != 0 {
			t.Fatalf("slot %d still holds %d after Reset", i, e)
		}
	}
	if !s.Add(0) || s.Add(0) || s.Len() != 1 {
		t.Fatal("a reset set does not behave as empty")
	}
}

func TestIDSetRestoreDeduplicates(t *testing.T) {
	w := statecodec.NewWriter()
	w.Uint32(4)
	for _, id := range []int{9, -3, 9, 9} {
		w.Int(id)
	}
	s := NewIDSet(16)
	s.Add(77) // restore replaces, not merges
	if err := s.RestoreFrom(statecodec.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkAgainst(t, &s, map[int]struct{}{9: {}, -3: {}})
}

func TestIDSetSteadyStateAllocFree(t *testing.T) {
	s := NewIDSet(16)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			s.Add(i * 1000003)
		}
		s.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Add/Reset within the pre-sized capacity allocated %.1f times per run", allocs)
	}
}

// FuzzIDSet is a differential test against map[int]struct{}. The input
// drives a sequence of operations — Add of small, negative and extreme
// IDs, Reset and reuse — checking Add's result and Len after each step
// and the snapshot bytes before every Reset and at the end; the same
// bytes are then fed to RestoreFrom,
// which must either succeed with exactly the members they encode or
// return an error, never panic.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0x80, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 2, 0, 5})
	f.Add(mapEncoding(map[int]struct{}{1: {}, math.MinInt: {}, math.MaxInt: {}}))
	f.Add(append([]byte{3, 0, 0, 0}, bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 3)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s IDSet
		ref := map[int]struct{}{}
		for ops := data; len(ops) > 0; {
			op := ops[0]
			ops = ops[1:]
			var id int
			switch op % 4 {
			case 0: // small ID, collides often
				id = int(op>>2) - 32
			case 1: // dense run of IDs, forces growth
				for i := 0; i < int(op>>2); i++ {
					_, had := ref[i]
					ref[i] = struct{}{}
					if s.Add(i) == had {
						t.Fatalf("Add(%d) reported new=%v with the id present=%v", i, !had, had)
					}
				}
				if s.Len() != len(ref) {
					t.Fatalf("Len = %d, reference holds %d", s.Len(), len(ref))
				}
				continue
			case 2:
				checkAgainst(t, &s, ref)
				s.Reset()
				clear(ref)
				checkAgainst(t, &s, ref)
				continue
			case 3: // full-width ID: negative, huge, extreme
				var b [8]byte
				ops = ops[copy(b[:], ops):]
				id = int(int64(binary.LittleEndian.Uint64(b[:])))
			}
			_, had := ref[id]
			ref[id] = struct{}{}
			if s.Add(id) == had {
				t.Fatalf("Add(%d) reported new=%v with the id present=%v", id, !had, had)
			}
			if s.Len() != len(ref) {
				t.Fatalf("Len = %d, reference holds %d", s.Len(), len(ref))
			}
		}
		checkAgainst(t, &s, ref)

		var restored IDSet
		restored.Add(1 << 40) // restore must replace what was there
		err := restored.RestoreFrom(statecodec.NewReader(data))
		if len(data) < 4 {
			if err == nil {
				t.Fatal("restore from a truncated count succeeded")
			}
			return
		}
		n := int(binary.LittleEndian.Uint32(data))
		if n > (len(data)-4)/8 {
			if err == nil {
				t.Fatalf("restore accepted a count of %d with %d bytes behind it", n, len(data)-4)
			}
			return
		}
		if err != nil {
			t.Fatalf("restore of a well-formed encoding failed: %v", err)
		}
		want := map[int]struct{}{}
		for i := 0; i < n; i++ {
			want[int(int64(binary.LittleEndian.Uint64(data[4+8*i:])))] = struct{}{}
		}
		checkAgainst(t, &restored, want)
	})
}

// BenchmarkIDSetRecycle measures one short session on a set recycled
// from a 10k-member session: the cost should be that of the 20 members
// it adds, not of the table the earlier session grew.
func BenchmarkIDSetRecycle(b *testing.B) {
	s := NewIDSet(16)
	for i := 0; i < 10000; i++ {
		s.Add(i)
	}
	s.Reset()
	b.ReportAllocs()
	for b.Loop() {
		for id := 0; id < 20; id++ {
			s.Add(id * 31)
		}
		s.Reset()
	}
}
