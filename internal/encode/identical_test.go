package encode

import (
	"bytes"
	"testing"

	"satalloc/internal/bv"
	"satalloc/internal/model"
)

// tieSystem is a 3-ECU token ring whose tasks form two equal-deadline
// groups of three (so priority transitivity is encoded for both) plus a
// replicated pair that must not share an ECU, with a message crossing the
// groups.
func tieSystem() *model.System {
	s := &model.System{Name: "ties"}
	s.ECUs = []*model.ECU{{ID: 0, Name: "p0"}, {ID: 1, Name: "p1"}, {ID: 2, Name: "p2"}}
	s.Media = []*model.Medium{{
		ID: 0, Name: "ring", Kind: model.TokenRing, ECUs: []int{0, 1, 2},
		TimePerUnit: 1, FrameOverhead: 1, SlotQuantum: 2, MaxSlots: 6,
	}}
	wcet := func(c int64) map[int]int64 { return map[int]int64{0: c, 1: c, 2: c} }
	for i, d := range []int64{50, 50, 50, 80, 80, 80, 100} {
		s.Tasks = append(s.Tasks, &model.Task{
			ID: i, Name: string(rune('a' + i)), Period: 100, Deadline: d, WCET: wcet(int64(3 + i)),
		})
	}
	s.Tasks[0].Separation = []int{3}
	s.Tasks[3].Separation = []int{0}
	s.Tasks[1].Messages = []int{0}
	s.Messages = []*model.Message{{ID: 0, Name: "m0", From: 1, To: 4, Size: 2, Deadline: 60}}
	return s
}

// TestEncodingByteIdentical requires the same spec to encode and compile
// to a byte-identical formula every time. Map iteration order in the
// encoder once leaked into the order constraints were emitted, so repeated
// solves of one spec searched different (equisatisfiable) formulas and
// did different amounts of work.
func TestEncodingByteIdentical(t *testing.T) {
	sys := tieSystem()
	var first []byte
	for i := 0; i < 20; i++ {
		enc, err := Encode(sys, Options{Objective: MinimizeTRT, ObjectiveMedium: -1})
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := bv.Compile(enc.F)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := compiled.S.WriteOPB(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("encoding %d differs from the first (%d vs %d bytes)", i, buf.Len(), len(first))
		}
	}
}
