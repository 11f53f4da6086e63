package analysis

// Tests for the worklist's per-cell reader lists (solver.go register and
// bump): up to inlineReaders readers live inline in VarState.dep, the
// rest spill into a sorted, duplicate-free slice.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestVarStateSize pins the cell size: the spill list is held through
// a pointer so the common, unspilled cell pays one word for it.
func TestVarStateSize(t *testing.T) {
	if got := unsafe.Sizeof(VarState{}); got != 112 {
		t.Fatalf("VarState is %d bytes, want 112", got)
	}
}

// TestReaderListsMatchModel applies random register sequences, repeats
// included, to a few cells and checks each against a map-based model:
// the inline entries hold the first distinct readers, the spilled list
// is strictly ascending, disjoint from the inline entries, and together
// they are exactly the model's set. bump must then mark exactly the
// model's readers dirty and schedule exactly their contours.
func TestReaderListsMatchModel(t *testing.T) {
	const (
		nContours = 4
		nInstrs   = 16
	)
	spilled := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := &analyzer{curIdx: -1}
		for i := 0; i < nContours; i++ {
			a.mcList = append(a.mcList, &MethodContour{ID: i, dirty: make([]bool, numSlots*nInstrs)})
		}
		var cells [3]VarState
		var order [3][]uint64 // distinct readers in registration order
		model := [3]map[uint64]bool{{}, {}, {}}
		// A narrow reader range gives repeats; a wide one gives spills.
		span := 1 + r.Intn(nInstrs)
		for step := 0; step < 80; step++ {
			c := r.Intn(len(cells))
			a.cur = a.mcList[r.Intn(nContours)]
			a.curInstr = r.Intn(span)
			slot := r.Intn(numSlots)
			a.register(&cells[c], slot)
			key := uint64(a.cur.ID)<<32 | uint64(numSlots*a.curInstr+slot+1)
			if !model[c][key] {
				model[c][key] = true
				order[c] = append(order[c], key)
			}
		}
		a.cur, a.curInstr = nil, -1
		for c := range cells {
			vs := &cells[c]
			for i, d := range vs.dep {
				want := uint64(0)
				if i < len(order[c]) {
					want = order[c][i]
				}
				if d != want {
					t.Logf("seed %d cell %d: dep[%d] = %#x, want %#x", seed, c, i, d, want)
					return false
				}
			}
			var list []uint64
			if vs.deps != nil {
				list = *vs.deps
			}
			if len(list) > 0 {
				spilled++
			}
			got := map[uint64]bool{}
			for _, d := range vs.dep {
				if d != 0 {
					got[d] = true
				}
			}
			for i, rd := range list {
				if i > 0 && list[i-1] >= rd {
					t.Logf("seed %d cell %d: spilled readers not strictly ascending: %x", seed, c, list)
					return false
				}
				if got[rd] {
					t.Logf("seed %d cell %d: reader %#x both inline and spilled", seed, c, rd)
					return false
				}
				got[rd] = true
			}
			if len(got) != len(model[c]) {
				t.Logf("seed %d cell %d: %d readers recorded, model has %d", seed, c, len(got), len(model[c]))
				return false
			}
			for rd := range model[c] {
				if !got[rd] {
					t.Logf("seed %d cell %d: reader %#x lost", seed, c, rd)
					return false
				}
			}

			for _, mc := range a.mcList {
				clear(mc.dirty)
			}
			a.dirtyCur = make([]bool, nContours)
			a.dirtyNext = make([]bool, nContours)
			a.bump(vs)
			sched := map[int]bool{}
			for rd := range model[c] {
				sched[int(rd>>32)] = true
			}
			for _, mc := range a.mcList {
				for bit, dirty := range mc.dirty {
					want := model[c][uint64(mc.ID)<<32|uint64(bit+1)]
					if dirty != want {
						t.Logf("seed %d cell %d: contour %d bit %d dirty=%v after bump, want %v", seed, c, mc.ID, bit, dirty, want)
						return false
					}
				}
				if a.dirtyCur[mc.ID] != sched[mc.ID] {
					t.Logf("seed %d cell %d: contour %d scheduled=%v, want %v", seed, c, mc.ID, a.dirtyCur[mc.ID], sched[mc.ID])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("no cell spilled: the inputs never reach the spill list")
	}
}
