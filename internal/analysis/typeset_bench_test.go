package analysis

import "testing"

// The Union benchmarks cover the shapes the fixpoint hits most: unioning
// an empty or identical set (no-op), pouring a populated set into an
// empty one (first flow into a fresh contour register), and re-unioning
// an already-converged pair (steady-state passes). The List benchmarks
// cover the reads every field load and call binding makes.

func benchContours(n int) []*ObjContour {
	out := make([]*ObjContour, n)
	for i := range out {
		out[i] = &ObjContour{ID: i}
	}
	return out
}

func populated(ocs []*ObjContour) *TypeSet {
	var t TypeSet
	t.AddPrim(PInt | PNil)
	for _, oc := range ocs {
		t.AddObj(oc)
	}
	return &t
}

func BenchmarkUnionEmptySource(b *testing.B) {
	dst := populated(benchContours(8))
	var empty TypeSet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Union(&empty)
	}
}

func BenchmarkUnionSelf(b *testing.B) {
	t := populated(benchContours(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Union(t)
	}
}

func BenchmarkUnionIntoEmpty(b *testing.B) {
	src := populated(benchContours(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var dst TypeSet
		dst.Union(src)
	}
}

func BenchmarkUnionConverged(b *testing.B) {
	ocs := benchContours(8)
	src := populated(ocs)
	dst := populated(ocs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dst.Union(src) {
			b.Fatal("converged union reported change")
		}
	}
}

func BenchmarkVarStateMergeConverged(b *testing.B) {
	ocs := benchContours(4)
	tt := newTagTable(3)
	mk := func() *VarState {
		s := &VarState{State: State{TS: *populated(ocs)}}
		for i := range ocs {
			s.Tags.Add(tt.makeObj(poolOCs[i], 0, tt.noField))
		}
		return s
	}
	src, dst := mk(), mk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.Merge(&src.State)
	}
}

func BenchmarkObjList(b *testing.B) {
	t := populated(benchContours(8))
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(t.ObjList())
	}
	_ = n
}

func BenchmarkTagSetList(b *testing.B) {
	var s TagSet
	for _, t := range tagPool(8) {
		s.Add(t)
	}
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(s.List())
	}
	_ = n
}
