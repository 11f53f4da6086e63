package analysis

// White-box property tests for the analysis lattices: the type-set union
// must behave as a join (commutative, associative, idempotent, monotone),
// and the tag algebra must respect the paper's Head law and the depth cap.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"objinline/internal/ir"
)

// poolFields is the number of fields of the pool contours' class: slot
// 0 is 0, slot i > 0 is "f<i>". Tags are keyed by field cell, so
// distinct tags on one contour need distinct slots.
const poolFields = 32

// genPool builds a pool of object contours to draw from.
func genPool() ([]*ObjContour, []*ArrContour) {
	cls := &ir.Class{Name: "T", Methods: map[string]*ir.Func{}}
	for i := 0; i < poolFields; i++ {
		name := "f"
		if i > 0 {
			name = fmt.Sprintf("f%d", i)
		}
		cls.Fields = append(cls.Fields, &ir.Field{Name: name, Slot: i, Owner: cls})
	}
	fn := &ir.Func{Name: "site"}
	ocs := make([]*ObjContour, 6)
	for i := range ocs {
		ocs[i] = &ObjContour{ID: i, Class: cls, Site: &ir.Instr{ID: i}, SiteFn: fn, Fields: make([]VarState, poolFields)}
	}
	acs := make([]*ArrContour, 4)
	for i := range acs {
		acs[i] = &ArrContour{ID: i, Site: &ir.Instr{ID: 100 + i}, SiteFn: fn}
	}
	return ocs, acs
}

var poolOCs, poolACs = genPool()

// randTS draws a random type set, returning also the object contours
// added to it.
func randTS(r *rand.Rand) (TypeSet, map[*ObjContour]bool) {
	var ts TypeSet
	added := make(map[*ObjContour]bool)
	ts.AddPrim(PrimMask(r.Intn(32)))
	for _, oc := range poolOCs {
		if r.Intn(3) == 0 {
			ts.AddObj(oc)
			added[oc] = true
		}
	}
	for _, ac := range poolACs {
		if r.Intn(4) == 0 {
			ts.AddArr(ac)
		}
	}
	return ts, added
}

func cloneTS(ts *TypeSet) TypeSet {
	var out TypeSet
	out.Union(ts)
	return out
}

// equalTS reports whether a and b hold the same primitives and the same
// contours. Lists are strictly ascending by ID, so equal sets have
// element-for-element equal lists.
func equalTS(a, b *TypeSet) bool {
	return a.Prims == b.Prims && slices.Equal(a.ObjList(), b.ObjList()) &&
		slices.Equal(a.ArrList(), b.ArrList())
}

type tsValue struct {
	TS    TypeSet
	added map[*ObjContour]bool // the object contours added to TS
}

// Generate implements quick.Generator.
func (tsValue) Generate(r *rand.Rand, _ int) reflect.Value {
	ts, added := randTS(r)
	return reflect.ValueOf(tsValue{ts, added})
}

func TestTypeSetUnionCommutative(t *testing.T) {
	f := func(a, b tsValue) bool {
		x := cloneTS(&a.TS)
		x.Union(&b.TS)
		y := cloneTS(&b.TS)
		y.Union(&a.TS)
		return equalTS(&x, &y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeSetUnionAssociative(t *testing.T) {
	f := func(a, b, c tsValue) bool {
		x := cloneTS(&a.TS)
		x.Union(&b.TS)
		x.Union(&c.TS)
		bc := cloneTS(&b.TS)
		bc.Union(&c.TS)
		y := cloneTS(&a.TS)
		y.Union(&bc)
		return equalTS(&x, &y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeSetUnionIdempotentAndReportsChange(t *testing.T) {
	f := func(a, b tsValue) bool {
		x := cloneTS(&a.TS)
		x.Union(&b.TS)
		// Second union of the same operand must be a no-op and report no
		// change.
		if x.Union(&b.TS) {
			return false
		}
		if x.Union(&a.TS) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeSetUnionMonotone(t *testing.T) {
	contains := func(big, small *TypeSet) bool {
		if small.Prims&^big.Prims != 0 {
			return false
		}
		for _, oc := range small.ObjList() {
			if !slices.Contains(big.ObjList(), oc) {
				return false
			}
		}
		for _, ac := range small.ArrList() {
			if !slices.Contains(big.ArrList(), ac) {
				return false
			}
		}
		return true
	}
	f := func(a, b tsValue) bool {
		x := cloneTS(&a.TS)
		x.Union(&b.TS)
		return contains(&x, &a.TS) && contains(&x, &b.TS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObjListSortedAndComplete(t *testing.T) {
	f := func(a tsValue) bool {
		l := a.TS.ObjList()
		if len(l) != len(a.added) {
			return false
		}
		for _, oc := range l {
			if !a.added[oc] {
				return false
			}
		}
		for i := 1; i < len(l); i++ {
			if l[i-1].ID >= l[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- tag algebra ---

func TestTagHeadLaw(t *testing.T) {
	tt := newTagTable(3)
	oc := poolOCs[0]
	// Head(MakeTag(f, t)) == f for every base.
	bases := []*Tag{tt.noField, tt.makeObj(poolOCs[1], 0, tt.noField)}
	for _, b := range bases {
		tag := tt.makeObj(oc, 0, b)
		h := tag.Head()
		if h.Class != oc.Class || h.Name != "f" {
			t.Errorf("Head(MakeTag(f,%v)) = %v", b, h)
		}
	}
	at := tt.makeArr(poolACs[0], tt.noField)
	if h := at.Head(); !h.Array {
		t.Errorf("array tag head = %v", h)
	}
}

// TestTagInterning holds interning to one tag per (field cell, base),
// for object fields and array elements, with IDs handed out in creation
// order from 2; after a reset, fresh contours number from 2 again.
func TestTagInterning(t *testing.T) {
	ocs, acs := genPool()
	tt := newTagTable(3)
	a := tt.makeObj(ocs[0], 0, tt.noField)
	b := tt.makeObj(ocs[0], 0, tt.noField)
	if a != b {
		t.Error("equal tags not interned")
	}
	c := tt.makeObj(ocs[1], 0, tt.noField)
	if a == c {
		t.Error("distinct contours share a tag")
	}
	if d := tt.makeObj(ocs[0], 1, tt.noField); d == a {
		t.Error("distinct fields of one contour share a tag")
	}
	if d := tt.makeObj(ocs[0], 0, c); d == a || d != tt.makeObj(ocs[0], 0, c) {
		t.Error("a second base on one field is not interned apart")
	}
	e := tt.makeArr(acs[0], tt.noField)
	if e != tt.makeArr(acs[0], tt.noField) {
		t.Error("equal array tags not interned")
	}
	if tt.makeArr(acs[1], tt.noField) == e {
		t.Error("distinct array contours share a tag")
	}
	if f := tt.makeArr(acs[0], a); f == e || f != tt.makeArr(acs[0], a) || f.Base != a {
		t.Error("an array tag's base is not interned apart")
	}
	for i, tag := range tt.all {
		if tag.ID != i+2 {
			t.Errorf("tag %d of the pass has ID %d, want %d", i, tag.ID, i+2)
		}
	}
	if len(tt.all) != 7 {
		t.Errorf("%d tags interned, want 7", len(tt.all))
	}

	tt.reset()
	ocs, acs = genPool()
	if x := tt.makeArr(acs[0], tt.noField); x.ID != 2 {
		t.Errorf("first tag after reset has ID %d, want 2", x.ID)
	}
	if x := tt.makeObj(ocs[0], 0, tt.noField); x.ID != 3 || x == a {
		t.Errorf("second tag after reset has ID %d (reused %v), want a new tag with ID 3", x.ID, x == a)
	}
}

func TestTagDepthCapKeepsHead(t *testing.T) {
	// Fresh contours: tags are interned on their cells, and another
	// table's Top-based tags there would be found first.
	ocs, _ := genPool()
	tt := newTagTable(3)
	tag := tt.makeObj(ocs[0], 0, tt.noField)
	for i := 0; i < 10; i++ {
		oc := ocs[i%len(ocs)]
		tag = tt.makeObj(oc, 0, tag)
		if tag.IsTop() {
			t.Fatalf("head collapsed to Top at depth %d", i)
		}
		if tag.Depth > 3 {
			t.Fatalf("depth %d exceeds cap", tag.Depth)
		}
	}
	// Saturated tags intern stably too.
	a := tt.makeObj(ocs[0], 0, tag)
	b := tt.makeObj(ocs[0], 0, tag)
	if a != b {
		t.Error("saturated tags not interned")
	}
}

func TestTagSetSaturatesToTop(t *testing.T) {
	tt := newTagTable(4)
	var s TagSet
	added := 0
	for i := 0; !s.HasTop(); i++ {
		if i > 100 {
			t.Fatal("tag set never saturated")
		}
		oc := poolOCs[i%len(poolOCs)]
		tag := tt.makeObj(oc, i%26, tt.noField)
		s.Add(tag)
		added++
	}
	// Saturation keeps the established members and summarizes the rest
	// as Top.
	if s.Len() != maxTagSet+1 {
		t.Errorf("saturated set has %d members, want %d", s.Len(), maxTagSet+1)
	}
	// Further additions are absorbed by Top without growth.
	extra := tt.makeObj(poolOCs[0], poolFields-1, tt.noField)
	if s.Add(extra) {
		t.Error("post-saturation add reported change")
	}
	if s.Len() != maxTagSet+1 {
		t.Errorf("set grew past saturation: %d", s.Len())
	}
	// Heads of established members remain known.
	heads, _, top := s.Heads()
	if !top || len(heads) == 0 {
		t.Errorf("saturation lost heads: %d heads, top=%v", len(heads), top)
	}
}

func TestTagSetUnionIdempotent(t *testing.T) {
	tt := newTagTable(3)
	var a, b TagSet
	a.Add(tt.noField)
	b.Add(tt.makeObj(poolOCs[0], 0, tt.noField))
	b.Add(tt.noField)
	a.Union(&b)
	if a.Union(&b) {
		t.Error("second union reported change")
	}
	if a.Len() != 2 {
		t.Errorf("len = %d", a.Len())
	}
}

func TestHeadsClassification(t *testing.T) {
	tt := newTagTable(3)
	var s TagSet
	s.Add(tt.noField)
	s.Add(tt.makeObj(poolOCs[0], 0, tt.noField))
	s.Add(sharedTop)
	heads, noField, top := s.Heads()
	if len(heads) != 1 || !noField || !top {
		t.Errorf("heads=%v noField=%v top=%v", heads, noField, top)
	}
}
