package analysis_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/bench"
)

// refTagPath is the fmt rendering the tag path appender replaced, kept
// as its reference: each holder innermost first, reversed, joined by
// "<-".
func refTagPath(t *analysis.Tag) string {
	var parts []string
	for x := t; x != nil && !x.IsNoField(); x = x.Base {
		if x.IsTop() {
			parts = append(parts, "Top")
			break
		}
		if x.AC != nil {
			parts = append(parts, fmt.Sprintf("arr#%d[]", x.AC.ID))
		} else {
			parts = append(parts, fmt.Sprintf("%s#%d.%s", x.OC.Class.Name, x.OC.ID, x.Field))
		}
	}
	slices.Reverse(parts)
	return strings.Join(parts, "<-")
}

// TestTagInterningEveryBenchmark checks the per-cell interning over
// every benchmark's inline analysis: no two tags share a (holder, field,
// base), the canonical IDs are 2..n+1, every tag a value set holds is
// interned, and every tag's sort key equals the reference rendering.
func TestTagInterningEveryBenchmark(t *testing.T) {
	for _, p := range bench.Programs {
		t.Run(p.Name, func(t *testing.T) {
			src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			res := analysis.Analyze(compile(t, src), analysis.Options{Tags: true})
			type key struct {
				oc    *analysis.ObjContour
				ac    *analysis.ArrContour
				field string
				base  *analysis.Tag
			}
			byKey := map[key]*analysis.Tag{}
			byID := map[int]*analysis.Tag{}
			for _, cell := range res.TagCells() {
				for _, tag := range cell {
					k := key{tag.HeadOC(), tag.HeadAC(), tag.Field, tag.Base}
					if other := byKey[k]; other != nil {
						t.Fatalf("tags %d and %d share holder, field and base (%s)", other.ID, tag.ID, tag)
					}
					byKey[k] = tag
					if other := byID[tag.ID]; other != nil {
						t.Fatalf("tags %s and %s share ID %d", other, tag, tag.ID)
					}
					byID[tag.ID] = tag
					want := refTagPath(tag)
					if got := analysis.TagPath(tag); got != want {
						t.Errorf("tag %d sort key %q, reference %q", tag.ID, got, want)
					}
					if got := tag.String(); got != want {
						t.Errorf("tag %d String %q, reference %q", tag.ID, got, want)
					}
				}
			}
			if len(byID) == 0 {
				t.Fatal("no tags interned")
			}
			for id := 2; id < len(byID)+2; id++ {
				if byID[id] == nil {
					t.Fatalf("%d tags but none has ID %d", len(byID), id)
				}
			}
			held := func(where string, s *analysis.VarState) {
				for _, tag := range s.Tags.List() {
					if !tag.IsNoField() && !tag.IsTop() && byID[tag.ID] != tag {
						t.Fatalf("%s holds tag %s, which no field cell interned", where, tag)
					}
				}
			}
			for _, mc := range res.Mcs {
				for r := range mc.Regs {
					held(fmt.Sprintf("%v r%d", mc, r), &mc.Regs[r])
				}
			}
			for _, oc := range res.Objs {
				for i := range oc.Fields {
					held(fmt.Sprintf("%v field %d", oc, i), &oc.Fields[i])
				}
			}
		})
	}
}
