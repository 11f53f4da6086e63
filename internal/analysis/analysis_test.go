package analysis_test

import (
	"strings"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("test.icc", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	p, err := lower.Lower(info)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// paperExample is the program of the paper's Figures 1, 3, 4, and 5:
// Points and Point3Ds flowing into Rectangles, whose corners are read both
// directly and through unrelated List containers.
const paperExample = `
class Point {
  x_pos; y_pos;
  def init(x, y) { self.x_pos = x; self.y_pos = y; }
  def area(p) { return abs(self.x_pos - p.x_pos) * abs(self.y_pos - p.y_pos); }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos); }
}
class Point3D : Point {
  z_pos;
  def init(x, y, z) { self.x_pos = x; self.y_pos = y; self.z_pos = z; }
  def absv() { return sqrt(self.x_pos*self.x_pos + self.y_pos*self.y_pos + self.z_pos*self.z_pos); }
}
class Rectangle {
  lower_left; upper_right;
  def init(ll, ur) { self.lower_left = ll; self.upper_right = ur; }
  def area() { return self.lower_left.area(self.upper_right); }
}
class List {
  data; next;
  def init(d, n) { self.data = d; self.next = n; }
}
func head(l) { return l.data; }
func do_rectangle(ll, ur) {
  var r = new Rectangle(ll, ur);
  print(r.area());
  var l1 = new List(r.lower_left, nil);
  var l2 = new List(r.upper_right, nil);
  print(head(l1).absv());
  print(head(l2).absv());
}
func main() {
  var p1 = new Point(1.0, 2.0);
  var p2 = new Point(3.0, 4.0);
  do_rectangle(p1, p2);
  var p3 = new Point3D(1.0, 2.0, 3.0);
  var p4 = new Point3D(4.0, 5.0, 6.0);
  do_rectangle(p3, p4);
}
`

// TestPaperFig6And7 checks the type-inference walkthrough of §3.2.1:
// do_rectangle is split per call site (different argument types), and
// Rectangle object contours are split by creator so that each contour's
// lower_left field has a precise type.
func TestPaperFig6And7(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{})

	doRect := p.FuncNamed("do_rectangle")
	if n := len(res.Contours[doRect]); n < 2 {
		t.Fatalf("do_rectangle has %d contours, want >= 2 (one per argument type)\n%s", n, res)
	}

	// Every Rectangle contour's lower_left field must be monomorphic.
	rect := p.ClassNamed("Rectangle")
	sawPoint, sawPoint3D := false, false
	for _, oc := range res.Objs {
		if oc.Class != rect {
			continue
		}
		st := oc.FieldState("lower_left")
		classes := st.TS.Classes()
		if len(classes) != 1 {
			t.Errorf("Rectangle contour %s: lower_left classes = %v, want exactly 1", oc, classes)
		}
		switch classes[0] {
		case "Point":
			sawPoint = true
		case "Point3D":
			sawPoint3D = true
		}
	}
	if !sawPoint || !sawPoint3D {
		t.Errorf("expected Rectangle contours for both Point and Point3D (got point=%v point3d=%v)", sawPoint, sawPoint3D)
	}

	// With precise receiver contours, every dispatch should be
	// monomorphic.
	mono, total := res.MonomorphicSites()
	if mono != total {
		t.Errorf("monomorphic dispatch sites = %d/%d, want all\n%s", mono, total, res)
	}
}

// TestPaperFig8And9Tags checks use specialization: the two List creation
// sites give their data fields distinct tags, and the values returned by
// head carry the tag of exactly one Rectangle corner field.
func TestPaperFig8And9Tags(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{Tags: true})

	rect := p.ClassNamed("Rectangle")
	// Suppose both corners are inlining candidates. Values flowing through
	// List.data resolve (through the data field's content tags) to exactly
	// one corner's container rep per absv contour — the paper's Figure 8/9
	// requirement.
	candidates := func(k analysis.FieldKey) bool {
		return k.Class == rect && (k.Name == "lower_left" || k.Name == "upper_right")
	}
	pointAbs := p.ClassNamed("Point").Methods["absv"]
	cornerContours := 0
	for _, mc := range res.Contours[pointAbs] {
		rep := res.NewResolver(candidates).RepsOf(&mc.Regs[0].Tags)
		if rep.Confused {
			t.Errorf("contour %s: self rep confused (tags %s)", mc, mc.Regs[0].Tags.String())
			continue
		}
		if rep.Raw && len(rep.Heads) > 0 {
			t.Errorf("contour %s: self may be raw or container (tags %s)", mc, mc.Regs[0].Tags.String())
			continue
		}
		if _, ok := rep.Unique(); ok {
			cornerContours++
		}
	}
	if cornerContours < 2 {
		t.Errorf("want >= 2 Point::absv contours specialized to single corners, got %d\n%s", cornerContours, res)
	}

	// Rectangle's corner fields themselves must hold NoField-tagged values
	// (original points), a precondition for assignment specialization.
	for _, oc := range res.Objs {
		if oc.Class != rect {
			continue
		}
		for _, name := range []string{"lower_left", "upper_right"} {
			st := oc.FieldState(name)
			heads, noField, top := st.Tags.Heads()
			if !noField || len(heads) > 0 || top {
				t.Errorf("%s.%s tags = %s, want {NoField}", oc, name, st.Tags.String())
			}
		}
	}
}

func TestTagConfusionDetected(t *testing.T) {
	// The same variable receives values from two different fields: the
	// merged value must carry both heads so the decision can reject both.
	src := `
class Box { a; b; def init(x, y) { self.a = x; self.b = y; } }
class Item { v; def init(v) { self.v = v; } def get() { return self.v; } }
func pick(box, flag) {
  var r = box.a;
  if (flag) { r = box.b; }
  return r.get();
}
func main() {
  var bx = new Box(new Item(1), new Item(2));
  print(pick(bx, true), pick(bx, false));
}
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	box := p.ClassNamed("Box")
	pick := p.FuncNamed("pick")
	confused := false
	for _, mc := range res.Contours[pick] {
		for i := range mc.Regs {
			heads, _, top := mc.Regs[i].Tags.Heads()
			boxHeads := 0
			for _, h := range heads {
				if h.Class == box {
					boxHeads++
				}
			}
			if boxHeads > 1 || top {
				confused = true
			}
		}
	}
	if !confused {
		t.Errorf("expected a register carrying both Box.a and Box.b tags\n%s", res)
	}
}

func TestAnalysisTerminatesOnRecursion(t *testing.T) {
	src := `
class Node { v; next; def init(v, n) { self.v = v; self.next = n; } }
func build(n) {
  if (n == 0) { return nil; }
  return new Node(n, build(n - 1));
}
func sum(l) {
  if (l == nil) { return 0; }
  return l.v + sum(l.next);
}
func main() { print(sum(build(10))); }
`
	p := compile(t, src)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	if res.Passes > 8 {
		t.Errorf("Passes = %d", res.Passes)
	}
	node := p.ClassNamed("Node")
	found := false
	for _, oc := range res.Objs {
		if oc.Class == node {
			found = true
			next := oc.FieldState("next")
			if !next.TS.HasObjects() {
				t.Errorf("Node.next lost its object type: %s", next.TS.String())
			}
		}
	}
	if !found {
		t.Fatalf("no Node contour\n%s", res)
	}
}

func TestBaselineVsTagsContourCounts(t *testing.T) {
	// Tag tracking demands extra sensitivity: contour count with tags on
	// must be >= the baseline count (the Figure 16 effect).
	p := compile(t, paperExample)
	base := analysis.Analyze(p, analysis.Options{}).Stats()
	tags := analysis.Analyze(p, analysis.Options{Tags: true}).Stats()
	if tags.MethodContours < base.MethodContours {
		t.Errorf("tags contours %d < baseline %d", tags.MethodContours, base.MethodContours)
	}
	if base.ContoursPerMethod < 1 {
		t.Errorf("baseline contours/method %.2f < 1", base.ContoursPerMethod)
	}
}

func TestObjectFieldsEnumeration(t *testing.T) {
	p := compile(t, paperExample)
	res := analysis.Analyze(p, analysis.Options{Tags: true})
	var names []string
	for _, k := range res.ObjectFields() {
		names = append(names, k.String())
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"Rectangle.lower_left", "Rectangle.upper_right", "List.data"} {
		if !strings.Contains(joined, want) {
			t.Errorf("ObjectFields() = %v, missing %s", names, want)
		}
	}
	// List.next only ever holds nil in this program, so it must NOT count
	// as an object-holding field.
	if strings.Contains(joined, "List.next") {
		t.Errorf("ObjectFields() = %v, should not include List.next (holds only nil)", names)
	}
}
