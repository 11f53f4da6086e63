package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"objinline/internal/core"
	"objinline/internal/fuzzgen"
	"objinline/internal/pipeline"
)

// layoutCorpus is the inline build of every benchmark, of fuzz seeds 0–49
// and of every program in the repository's testdata/.
func layoutCorpus(t *testing.T) []corpusBuild {
	t.Helper()
	builds := benchmarkBuilds(t, pipeline.ModeInline)
	compile := func(name, src string) {
		c, err := pipeline.Compile(name, src, pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builds = append(builds, corpusBuild{name, c})
	}
	for seed := 0; seed < 50; seed++ {
		compile(fmt.Sprintf("seed%d", seed), fuzzgen.Program(int64(seed)))
	}
	files, err := filepath.Glob("../../testdata/*.icc")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d found)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		compile(filepath.Base(f), string(src))
	}
	return builds
}

// TestSlotMapsTotalAndInjective: over the layoutCorpus, every class
// version maps each original field to a SlotInfo, and the plain slots and
// inlined ranges [Slot, Slot+len(Child.New.Fields)) lie inside New.Fields,
// do not overlap and together cover it.
func TestSlotMapsTotalAndInjective(t *testing.T) {
	builds := layoutCorpus(t)
	versions, ranges := 0, 0
	for _, b := range builds {
		vers, err := core.ClassVersions(b.c.Source, b.c.Analysis, optsOf(b.c))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, v := range vers {
			versions++
			if len(v.Slots) != len(v.Orig.Fields) {
				t.Errorf("%s: %s maps %d fields, its class has %d", b.name, v, len(v.Slots), len(v.Orig.Fields))
			}
			owner := make([]string, len(v.New.Fields))
			for _, f := range v.Orig.Fields {
				si, ok := v.Slots[f.Name]
				if !ok {
					t.Errorf("%s: %s has no slot for field %s", b.name, v, f.Name)
					continue
				}
				n := 1
				if si.Child != nil {
					n = len(si.Child.New.Fields)
					ranges++
				}
				if si.Slot < 0 || si.Slot+n > len(v.New.Fields) {
					t.Errorf("%s: %s field %s takes slots [%d, %d) of %d", b.name, v, f.Name, si.Slot, si.Slot+n, len(v.New.Fields))
					continue
				}
				for s := si.Slot; s < si.Slot+n; s++ {
					if owner[s] != "" {
						t.Errorf("%s: %s slot %d belongs to both %s and %s", b.name, v, s, owner[s], f.Name)
					}
					owner[s] = f.Name
				}
			}
			for s, name := range owner {
				if name == "" {
					t.Errorf("%s: %s slot %d (%s) belongs to no original field", b.name, v, s, v.New.Fields[s].Name)
				}
			}
		}
	}
	if ranges == 0 {
		t.Fatalf("%d versions over %d builds and no inlined field", versions, len(builds))
	}
	t.Logf("checked %d class versions (%d inlined ranges) over %d builds", versions, ranges, len(builds))
}

// TestInlinedStoresMatchContainee checks, over the layoutCorpus, the
// premises the rewrite no longer re-checks: at every store into an
// inlined field or array, each stored contour has the containee's class
// version (so the copy reads the layout it writes), and every stored tag
// is NoField (so the stored value is a raw object, never an inlined rep).
func TestInlinedStoresMatchContainee(t *testing.T) {
	total := 0
	for _, b := range layoutCorpus(t) {
		n, bad, err := core.StorePremises(b.c.Source, b.c.Analysis, optsOf(b.c))
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, msg := range bad {
			t.Errorf("%s: %s", b.name, msg)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no store into an inlined field or array")
	}
	t.Logf("checked %d inlined stores", total)
}

// TestNestedCarrierNamesOutermostField: v is Mid.p's content either of a
// raw Mid or of the Mid inlined in Out.m, so its two carriers live at
// different inlined paths ("p$" and "m$p$"). The nested carrier belongs to
// Out.m, the outermost field it lives in, so the rewrite rejects Out.m as
// well as Mid.p; naming the inner Mid.p twice would leave Out.m inlined.
func TestNestedCarrierNamesOutermostField(t *testing.T) {
	opt := runBoth(t, `
class P { x; def init(x) { self.x = x; } }
class Mid { p; def init(p) { self.p = p; } }
class Out { m; def init(m) { self.m = m; } }
func main() {
  var mid = new Mid(new P(1));
  var o = new Out(new Mid(new P(2)));
  var v = mid.p;
  if (mid.p.x > 0) { v = o.m.p; }
  print(v.x);
}
`)
	for _, name := range []string{"Mid.p", "Out.m"} {
		found := false
		for k, why := range opt.Decision.Rejected {
			if k.String() == name {
				found = true
				if why.Code != core.ReasonRewriteFailure || !strings.Contains(why.Message, "different inlined paths") {
					t.Errorf("%s rejected as %s %q, want a rewrite failure on different inlined paths", name, why.Code, why.Message)
				}
			}
		}
		if !found {
			t.Errorf("%s not rejected; inlined %v, rejected %v", name, inlined(opt), opt.Decision.Rejected)
		}
	}
}
