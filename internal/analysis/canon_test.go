package analysis_test

import (
	"fmt"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/bench"
)

// TestValueSetsCanonicalOrder analyzes every benchmark at both Tags
// settings and requires every object, array and tag list in the Result
// to be strictly ascending by the canonical IDs the pass ended with:
// registers, return cells and edge arguments of every method contour,
// object fields, array element summaries and globals. canonicalize
// renumbers contours and tags after the solver built the lists in
// creation-ID order, so this holds only because it re-sorts them.
// Distinct tags must also differ in ID and rendering.
func TestValueSetsCanonicalOrder(t *testing.T) {
	for _, p := range bench.Programs {
		for _, tags := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tags=%v", p.Name, tags), func(t *testing.T) {
				src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
				if err != nil {
					t.Fatalf("source: %v", err)
				}
				res := analysis.Analyze(compile(t, src), analysis.Options{Tags: tags})
				// Value sets identify members by ID, so distinct tags must
				// carry distinct IDs (and, canonicalize's sort key,
				// distinct renderings).
				tagByID := map[int]*analysis.Tag{}
				tagByStr := map[string]*analysis.Tag{}
				check := func(where string, s *analysis.State) {
					for _, tag := range s.Tags.List() {
						for x := tag; x != nil; x = x.Base {
							if y := tagByID[x.ID]; y != nil && y != x {
								t.Fatalf("%s: tags %v and %v share ID %d", where, x, y, x.ID)
							}
							if y := tagByStr[x.String()]; y != nil && y != x {
								t.Fatalf("%s: two tags render as %v", where, x)
							}
							tagByID[x.ID], tagByStr[x.String()] = x, x
						}
					}
					var objs, arrs, tl []int
					for _, oc := range s.TS.ObjList() {
						objs = append(objs, oc.ID)
					}
					for _, ac := range s.TS.ArrList() {
						arrs = append(arrs, ac.ID)
					}
					for _, tag := range s.Tags.List() {
						tl = append(tl, tag.ID)
					}
					if !ascending(objs) || !ascending(arrs) || !ascending(tl) {
						t.Fatalf("%s: lists not strictly ascending by canonical ID: objects %v, arrays %v, tags %v",
							where, objs, arrs, tl)
					}
				}
				for _, mc := range res.Mcs {
					for r := range mc.Regs {
						check(fmt.Sprintf("%v r%d", mc, r), &mc.Regs[r].State)
					}
					check(fmt.Sprintf("%v ret", mc), &mc.Ret.State)
					for _, e := range mc.InEdges {
						for i := range e.Args {
							check(fmt.Sprintf("edge %v->%v arg %d", e.From, mc, i), &e.Args[i])
						}
					}
				}
				for _, oc := range res.Objs {
					for i := range oc.Fields {
						check(fmt.Sprintf("%v field %d", oc, i), &oc.Fields[i].State)
					}
				}
				for _, ac := range res.Arrs {
					check(fmt.Sprintf("%v elem", ac), &ac.Elem.State)
				}
				for g := range res.Globals {
					check(fmt.Sprintf("global %d", g), &res.Globals[g].State)
				}
			})
		}
	}
}

func ascending(ids []int) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return false
		}
	}
	return true
}
