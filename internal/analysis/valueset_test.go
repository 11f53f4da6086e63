package analysis

// Tests for the sorted copy-on-write value sets (valueset.go): stored
// lists never change under their readers, TagSet saturates exactly as
// the map-based set it replaced, and the hot operations allocate only
// on change.

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// tagPool interns n distinct real tags (plus the NoField and Top
// sentinels, first) from one table, in creation order.
func tagPool(n int) []*Tag {
	tt := newTagTable(3)
	out := []*Tag{tt.noField, sharedTop}
	for i := 0; len(out) < n+2; i++ {
		oc := poolOCs[i%len(poolOCs)]
		out = append(out, tt.makeObj(oc, i/len(poolOCs)%poolFields, tt.noField))
	}
	return out
}

// ascending reports whether l is strictly ascending by ID.
func ascending[T member](l []T) bool {
	for i := 1; i < len(l); i++ {
		if l[i-1].setID() >= l[i].setID() {
			return false
		}
	}
	return true
}

// snapshot is a list returned by an accessor plus a private copy of
// what it held when returned.
type snapshot[T member] struct{ got, want []T }

func snap[T member](l []T) snapshot[T] { return snapshot[T]{l, slices.Clone(l)} }

func (s snapshot[T]) intact() bool { return slices.Equal(s.got, s.want) }

// TestValueSetCopyOnWrite applies random sequences of AddObj, AddArr,
// Add and Union to a few cells, including unions of a cell with itself
// and between cells that share a slice after a union into an empty
// cell. Every list returned before an operation must be unchanged after
// it, and every list must stay strictly ascending.
func TestValueSetCopyOnWrite(t *testing.T) {
	tags := tagPool(20)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var cells [4]VarState
		for step := 0; step < 60; step++ {
			var objs []snapshot[*ObjContour]
			var arrs []snapshot[*ArrContour]
			var tls []snapshot[*Tag]
			for i := range cells {
				objs = append(objs, snap(cells[i].TS.ObjList()))
				arrs = append(arrs, snap(cells[i].TS.ArrList()))
				tls = append(tls, snap(cells[i].Tags.List()))
			}
			c, o := &cells[r.Intn(len(cells))], &cells[r.Intn(len(cells))]
			switch r.Intn(6) {
			case 0:
				c.TS.AddObj(poolOCs[r.Intn(len(poolOCs))])
			case 1:
				c.TS.AddArr(poolACs[r.Intn(len(poolACs))])
			case 2:
				c.Tags.Add(tags[r.Intn(len(tags))])
			case 3:
				c.TS.Union(&o.TS)
			case 4:
				c.Tags.Union(&o.Tags)
			case 5:
				c.Merge(&o.State)
			}
			for i := range cells {
				if !objs[i].intact() || !arrs[i].intact() || !tls[i].intact() {
					t.Logf("seed %d step %d: a stored list changed under its reader", seed, step)
					return false
				}
				s := &cells[i]
				if !ascending(s.TS.ObjList()) || !ascending(s.TS.ArrList()) || !ascending(s.Tags.List()) {
					t.Logf("seed %d step %d: cell %d not strictly ascending", seed, step, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// modelTags is the map-based TagSet the sorted one replaced, kept as
// the reference for saturation: Add collapses new tags past the cap to
// Top, and Union adds in ascending ID order whenever the sum of the two
// sizes exceeds the cap.
type modelTags map[*Tag]struct{}

func (m modelTags) add(t *Tag) bool {
	if t == nil {
		return false
	}
	if _, ok := m[t]; ok {
		return false
	}
	if len(m) >= maxTagSet && !t.IsTop() {
		return m.add(topOf(t))
	}
	m[t] = struct{}{}
	return true
}

func (m modelTags) union(o modelTags) bool {
	if len(o) == 0 {
		return false
	}
	changed := false
	if len(m)+len(o) <= maxTagSet {
		for t := range o {
			if m.add(t) {
				changed = true
			}
		}
		return changed
	}
	for _, t := range o.list() {
		if m.add(t) {
			changed = true
		}
	}
	return changed
}

func (m modelTags) list() []*Tag {
	out := make([]*Tag, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestTagSetMatchesModel builds random pairs of tag sets in lockstep
// with the model, up to and past the cap and with and without Top, and
// unions them both ways. Members, Len and every change report must
// agree with the model.
func TestTagSetMatchesModel(t *testing.T) {
	tags := tagPool(30)
	var aboveCap, withTop int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		build := func() (TagSet, modelTags) {
			var s TagSet
			m := modelTags{}
			for n := r.Intn(16); n > 0; n-- {
				tag := tags[r.Intn(len(tags))]
				if r.Intn(8) == 0 {
					tag = sharedTop
				}
				if s.Add(tag) != m.add(tag) {
					t.Logf("seed %d: Add(%v) change report differs from the model", seed, tag)
					return s, nil
				}
			}
			return s, m
		}
		same := func(s *TagSet, m modelTags) bool {
			return m != nil && s.Len() == len(m) && slices.Equal(s.List(), m.list())
		}
		a, ma := build()
		b, mb := build()
		if !same(&a, ma) || !same(&b, mb) {
			return false
		}
		if a.Len()+missing(a.tags, b.tags) > maxTagSet {
			aboveCap++
		}
		if a.HasTop() || b.HasTop() {
			withTop++
		}
		// Union a copy of a, so b can then be unioned with the original.
		x, mx := TagSet{a.tags}, maps.Clone(ma)
		if x.Union(&b) != mx.union(mb) || !same(&x, mx) {
			t.Logf("seed %d: %v ∪ %v = %v, model %v", seed, &a, &b, &x, mx.list())
			return false
		}
		if b.Union(&a) != mb.union(ma) || !same(&b, mb) {
			t.Logf("seed %d: reverse union differs from the model", seed)
			return false
		}
		// A converged union is a no-op in both.
		return !x.Union(&a) && !mx.union(ma) && same(&x, mx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if aboveCap == 0 || withTop == 0 {
		t.Fatalf("inputs missed a case: %d above-cap unions, %d with Top", aboveCap, withTop)
	}
}

// TestTopIsOneSentinel holds every tag table to the package's one Top.
func TestTopIsOneSentinel(t *testing.T) {
	ocs, _ := genPool() // fresh cells: no other table's tags on them
	tt := newTagTable(1)
	deep := tt.makeObj(ocs[0], 0, tt.makeObj(ocs[1], 0, tt.noField))
	if deep.Base != sharedTop {
		t.Fatalf("capped tag's base is %p, want the shared Top %p", deep.Base, sharedTop)
	}
	if got := topOf(tt.noField); got != sharedTop {
		t.Fatalf("topOf = %p, want the shared Top %p", got, sharedTop)
	}
}

// TestValueSetAllocs gates the hot operations at zero allocations:
// reading a list, a converged union or merge, and a union into an empty
// destination (which shares the source's lists).
func TestValueSetAllocs(t *testing.T) {
	ocs := benchContours(8)
	src, dst := populated(ocs), populated(ocs) // equal members, distinct slices
	src.AddArr(poolACs[0])
	dst.AddArr(poolACs[0])
	tags := tagPool(6)
	mk := func() *VarState {
		s := &VarState{State: State{TS: *populated(ocs)}}
		for _, tag := range tags {
			s.Tags.Add(tag)
		}
		return s
	}
	vsrc, vdst := mk(), mk()
	var sink int
	cases := []struct {
		name string
		f    func()
	}{
		{"ObjList", func() { sink += len(src.ObjList()) }},
		{"ArrList", func() { sink += len(src.ArrList()) }},
		{"TagSet.List", func() { sink += len(vsrc.Tags.List()) }},
		{"converged TypeSet.Union", func() {
			if dst.Union(src) {
				t.Fatal("converged union reported change")
			}
		}},
		{"converged VarState.Merge", func() {
			if vdst.Merge(&vsrc.State) {
				t.Fatal("converged merge reported change")
			}
		}},
		{"TypeSet.Union into empty", func() {
			var e TypeSet
			e.Union(src)
			sink += len(e.ObjList())
		}},
		{"VarState.Merge into empty", func() {
			var e VarState
			e.Merge(&vsrc.State)
			sink += e.Tags.Len()
		}},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	_ = sink
}
