// Package fuzzgen generates random but always-valid Mini-ICC programs
// full of container/containee patterns — fresh stores, aliased stores,
// global escapes, arrays, loops, polymorphic children, nested containers,
// factories and interprocedural readers. The differential fuzz tests
// compile them in every mode and compare the output; the optimizer's own
// tests use them as a corpus for internal invariants.
package fuzzgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Program returns the program generated from seed. The same seed always
// yields the same text.
func Program(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	return g.generate()
}

// progGen builds one random program.
type progGen struct {
	r *rand.Rand
	b strings.Builder

	leafClasses  []string       // classes with scalar fields
	contClasses  []string       // classes holding leaf objects
	contArity    map[string]int // constructor arity of each container class
	globals      []string
	subLeafArity int  // 0 when no Leaf0Sub was generated
	hasOuter     bool // an Outer container-of-container exists
}

func (g *progGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// generate produces the program text.
func (g *progGen) generate() string {
	nLeaf := 2 + g.r.Intn(2)
	for i := 0; i < nLeaf; i++ {
		g.leafClass(i)
	}
	// Sometimes add a subclass of Leaf0 (polymorphic containees).
	if g.r.Intn(2) == 0 {
		g.leafSubclass()
	}
	nCont := 1 + g.r.Intn(2)
	for i := 0; i < nCont; i++ {
		g.contClass(i)
	}
	// Sometimes add an outer container holding a container (nested
	// inlining).
	if g.r.Intn(2) == 0 {
		g.outerClass()
	}
	nGlob := g.r.Intn(2)
	for i := 0; i < nGlob; i++ {
		name := fmt.Sprintf("glob%d", i)
		g.globals = append(g.globals, name)
		g.emit("var %s;", name)
	}
	// Interprocedural helpers: a reader and a factory per container class
	// (exercising tag propagation through calls and FreshReturn chains).
	for _, cls := range g.contClasses {
		g.emit("func read%s(c) { return c.total() + c.first().sum(); }", cls)
		arity := g.contArity[cls]
		args := make([]string, arity)
		for j := range args {
			args[j] = g.newLeaf()
		}
		g.emit("func make%s() { return new %s(%s); }", cls, cls, strings.Join(args, ", "))
	}
	g.mainFunc()
	return g.b.String()
}

// leafClass emits a class with scalar fields, a getter-ish method, and a
// mutator.
func (g *progGen) leafClass(i int) {
	name := fmt.Sprintf("Leaf%d", i)
	g.leafClasses = append(g.leafClasses, name)
	nf := 1 + g.r.Intn(3)
	fields := make([]string, nf)
	for j := range fields {
		fields[j] = fmt.Sprintf("f%d", j)
	}
	g.emit("class %s {", name)
	g.emit("  %s;", strings.Join(fields, "; "))
	params := make([]string, nf)
	assigns := make([]string, nf)
	for j := range fields {
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.%s = p%d;", fields[j], j)
	}
	g.emit("  def init(%s) { %s }", strings.Join(params, ", "), strings.Join(assigns, " "))
	// sum(): reads every field.
	terms := make([]string, nf)
	for j, f := range fields {
		terms[j] = "self." + f
	}
	g.emit("  def sum() { return %s; }", strings.Join(terms, " + "))
	g.emit("  def bump(n) { self.%s = self.%s + n; return self.%s; }", fields[0], fields[0], fields[0])
	g.emit("}")
}

// contClass emits a container holding leaf objects.
func (g *progGen) contClass(i int) {
	name := fmt.Sprintf("Cont%d", i)
	g.contClasses = append(g.contClasses, name)
	nf := 1 + g.r.Intn(2)
	fields := make([]string, nf)
	params := make([]string, nf)
	assigns := make([]string, nf)
	terms := make([]string, nf)
	for j := 0; j < nf; j++ {
		fields[j] = fmt.Sprintf("c%d", j)
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.c%d = p%d;", j, j)
		terms[j] = fmt.Sprintf("self.c%d.sum()", j)
	}
	g.emit("class %s {", name)
	g.emit("  %s;", strings.Join(fields, "; "))
	g.emit("  def init(%s) { %s }", strings.Join(params, ", "), strings.Join(assigns, " "))
	g.emit("  def total() { return %s; }", strings.Join(terms, " + "))
	g.emit("  def first() { return self.c0; }")
	g.emit("}")
	// Remember arity for construction.
	if g.contArity == nil {
		g.contArity = map[string]int{}
	}
	g.contArity[name] = nf
}

// leafSubclass derives a subclass of Leaf0 with an extra field and an
// overriding sum (polymorphic containee for the containers).
func (g *progGen) leafSubclass() {
	g.emit("class Leaf0Sub : Leaf0 {")
	g.emit("  extra;")
	arity := strings.Count(extractInit(g.b.String(), "Leaf0"), "p")
	params := make([]string, arity)
	assigns := make([]string, arity)
	for j := 0; j < arity; j++ {
		params[j] = fmt.Sprintf("p%d", j)
		assigns[j] = fmt.Sprintf("self.f%d = p%d;", j, j)
	}
	g.emit("  def init(%s, e) { %s self.extra = e; }", strings.Join(params, ", "), strings.Join(assigns, " "))
	g.emit("  def sum() { return self.f0 + self.extra; }")
	g.emit("}")
	g.subLeafArity = arity + 1
}

// newSubLeaf renders a fresh Leaf0Sub construction.
func (g *progGen) newSubLeaf() string {
	args := make([]string, g.subLeafArity)
	for j := range args {
		args[j] = fmt.Sprint(g.r.Intn(20))
	}
	return fmt.Sprintf("new Leaf0Sub(%s)", strings.Join(args, ", "))
}

// outerClass emits a container-of-container (nested inlining target).
func (g *progGen) outerClass() {
	g.emit("class Outer {")
	g.emit("  inner; tag;")
	g.emit("  def init(i, t) { self.inner = i; self.tag = t; }")
	g.emit("  def deep() { return self.inner.total() + self.tag; }")
	g.emit("}")
	g.hasOuter = true
}

// newLeaf renders a fresh leaf construction expression; when a subclass
// exists it is chosen sometimes, making container fields polymorphic.
func (g *progGen) newLeaf() string {
	if g.subLeafArity > 0 && g.r.Intn(4) == 0 {
		return g.newSubLeaf()
	}
	cls := g.pick(g.leafClasses)
	// Arity is the field count, recoverable from the class index.
	nf := 0
	fmt.Sscanf(cls, "Leaf%d", &nf)
	// Regenerate arity deterministically is fragile; instead count from
	// the emitted text.
	arity := strings.Count(extractInit(g.b.String(), cls), "p")
	args := make([]string, 0, 4)
	for j := 0; j < arity; j++ {
		args = append(args, fmt.Sprint(g.r.Intn(20)))
	}
	return fmt.Sprintf("new %s(%s)", cls, strings.Join(args, ", "))
}

// extractInit finds "def init(...)" for cls and returns the parameter
// list text.
func extractInit(src, cls string) string {
	idx := strings.Index(src, "class "+cls+" ")
	if idx < 0 {
		return ""
	}
	rest := src[idx:]
	i := strings.Index(rest, "def init(")
	if i < 0 {
		return ""
	}
	rest = rest[i+len("def init("):]
	j := strings.Index(rest, ")")
	return rest[:j]
}

func (g *progGen) mainFunc() {
	g.emit("func main() {")
	vars := []string{}
	leafVars := []string{}
	nStmts := 6 + g.r.Intn(8)
	for s := 0; s < nStmts; s++ {
		switch g.r.Intn(10) {
		case 0: // fresh container with fresh leaves (inlinable pattern)
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.newLeaf()
			}
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = new %s(%s);", v, cls, strings.Join(args, ", "))
			g.emit("  print(%s.total());", v)
		case 1: // aliased container (blocks inlining; semantics must hold)
			if len(leafVars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.pick(leafVars)
			}
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = new %s(%s);", v, cls, strings.Join(args, ", "))
			g.emit("  print(%s.total());", v)
			// Mutate through the original to check aliasing is preserved.
			g.emit("  %s.bump(%d);", g.pick(leafVars), g.r.Intn(5))
			g.emit("  print(%s.total());", v)
		case 2: // leaf variable (alias source)
			v := fmt.Sprintf("l%d", len(leafVars))
			leafVars = append(leafVars, v)
			g.emit("  var %s = %s;", v, g.newLeaf())
			g.emit("  print(%s.sum());", v)
		case 3: // array of fresh leaves + summing loop
			v := fmt.Sprintf("arr%d", s)
			n := 2 + g.r.Intn(6)
			g.emit("  var %s = new [%d];", v, n)
			g.emit("  for (var i = 0; i < %d; i = i + 1) { %s[i] = %s; }", n, v, g.newLeaf())
			g.emit("  { var s = 0; for (var i = 0; i < %d; i = i + 1) { s = s + %s[i].sum(); } print(s); }", n, v)
		case 4: // global escape
			if len(g.globals) == 0 || len(leafVars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			g.emit("  %s = %s;", g.pick(g.globals), g.pick(leafVars))
			g.emit("  if (%s != nil) { print(%s.sum()); }", g.globals[0], g.globals[0])
		case 5: // container read-back + identity checks
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			g.emit("  if (%s.first() == %s.first()) { print(\"same\"); } else { print(\"diff\"); }", v, v)
			g.emit("  print(%s.first().sum());", v)
		case 6: // loop mutating through a container
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			g.emit("  for (var i = 0; i < %d; i = i + 1) { %s.first().bump(1); }", 1+g.r.Intn(5), v)
			g.emit("  print(%s.total());", v)
		case 8: // container from a factory (FreshReturn chain)
			cls := g.pick(g.contClasses)
			v := fmt.Sprintf("v%d", len(vars))
			vars = append(vars, v)
			g.emit("  var %s = make%s();", v, cls)
			g.emit("  print(%s.total());", v)
		case 9: // interprocedural reader
			if len(vars) == 0 {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			v := g.pick(vars)
			// Readers dispatch total()/first() dynamically, so any
			// reader accepts any container — mixing them exercises
			// call-confluence splitting.
			g.emit("  print(read%s(%s));", g.pick(g.contClasses), v)
		case 7: // nested container (Outer holds a fresh Cont)
			if !g.hasOuter {
				g.emit("  print(%d);", g.r.Intn(100))
				break
			}
			cls := g.pick(g.contClasses)
			arity := g.contArity[cls]
			args := make([]string, arity)
			for j := range args {
				args[j] = g.newLeaf()
			}
			o := fmt.Sprintf("o%d", s)
			g.emit("  var %s = new Outer(new %s(%s), %d);", o, cls, strings.Join(args, ", "), g.r.Intn(9))
			g.emit("  print(%s.deep());", o)
			g.emit("  %s.inner.first().bump(2);", o)
			g.emit("  print(%s.deep());", o)
		}
	}
	g.emit("}")
}
