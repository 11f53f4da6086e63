package analysis_test

import (
	"maps"
	"testing"

	"objinline/internal/analysis"
)

// contentCycle stores each of two cells' items into the other, so the
// provenance of a.item includes tags loaded from b.item and vice versa:
// a two-tag cycle in the content graph. The two members contribute
// different leaves — a.item also holds a value loaded from Holder.pt, and
// b.item an original object — so a memo that kept the partial answer of
// whichever member was entered second would drop the other's leaf.
const contentCycle = `
class Pt { x; def init(x) { self.x = x; } }
class Holder { pt; def init(p) { self.pt = p; } }
class Cell { item; def init(i) { self.item = i; } }
func main() {
  var h = new Holder(new Pt(1));
  var a = new Cell(h.pt);
  var b = new Cell(new Pt(2));
  a.item = b.item;
  b.item = a.item;
  a.item = b.item;
  print(a.item.x + b.item.x);
}
`

// TestResolverCycleOrderIndependent resolves the tags of a content cycle
// one at a time through a shared Resolver, in every order, and requires
// each answer to equal a fresh one-shot resolution of the same tag.
func TestResolverCycleOrderIndependent(t *testing.T) {
	p := compile(t, contentCycle)
	res := analysis.Analyze(p, analysis.Options{Tags: true})

	// Every real tag any register carries, then those on a content cycle.
	seen := map[*analysis.Tag]bool{}
	var all []*analysis.Tag
	for _, mc := range res.Mcs {
		for i := range mc.Regs {
			for _, tag := range mc.Regs[i].Tags.List() {
				if !tag.IsNoField() && !tag.IsTop() && !seen[tag] {
					seen[tag] = true
					all = append(all, tag)
				}
			}
		}
	}
	var cycle []*analysis.Tag
	for _, tag := range all {
		if reachesItself(tag) {
			cycle = append(cycle, tag)
		}
	}
	if len(cycle) < 2 {
		t.Fatalf("want a content cycle of at least two tags, got %d of %d tags\n%s", len(cycle), len(all), res)
	}

	holderPt := analysis.FieldKey{Class: p.ClassNamed("Holder"), Name: "pt"}
	predicates := map[string]func(analysis.FieldKey) bool{
		"none":      func(analysis.FieldKey) bool { return false },
		"Holder.pt": func(k analysis.FieldKey) bool { return k == holderPt },
	}
	sawField := false
	for name, inlined := range predicates {
		for _, order := range rotations(cycle) {
			rs := res.NewResolver(inlined)
			for _, tag := range order {
				var one analysis.TagSet
				one.Add(tag)
				got, want := rs.RepsOf(&one), res.RepsOf(&one, inlined)
				if !sameRep(got, want) {
					t.Errorf("%s: tag %s after %v: shared resolver gives %+v, fresh %+v", name, tag, order, got, want)
				}
				sawField = sawField || got.Fields[holderPt]
			}
		}
	}
	if !sawField {
		t.Error("no cycle tag resolved to Holder.pt; the case no longer exercises a leaf inside the cycle")
	}
}

// reachesItself reports whether t's content provenance leads back to t.
func reachesItself(t *analysis.Tag) bool {
	seen := map[*analysis.Tag]bool{}
	var walk func(x *analysis.Tag) bool
	walk = func(x *analysis.Tag) bool {
		if x.IsNoField() || x.IsTop() || x.OC == nil {
			return false
		}
		fs := x.OC.FieldState(x.Field)
		if fs == nil {
			return false
		}
		for _, ct := range fs.Tags.List() {
			if ct == t {
				return true
			}
			if !seen[ct] {
				seen[ct] = true
				if walk(ct) {
					return true
				}
			}
		}
		return false
	}
	return walk(t)
}

// rotations returns every rotation of ts and of its reverse.
func rotations(ts []*analysis.Tag) [][]*analysis.Tag {
	var out [][]*analysis.Tag
	for _, dir := range []bool{false, true} {
		for i := range ts {
			order := make([]*analysis.Tag, len(ts))
			for j := range ts {
				k := (i + j) % len(ts)
				if dir {
					k = len(ts) - 1 - k
				}
				order[j] = ts[k]
			}
			out = append(out, order)
		}
	}
	return out
}

func sameRep(a, b analysis.Rep) bool {
	return a.Raw == b.Raw && a.Confused == b.Confused && maps.Equal(a.Fields, b.Fields)
}
