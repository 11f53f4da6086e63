package core

import (
	"fmt"
	"sort"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// Decision is the outcome of the inlinability analysis: the set of fields
// (and array-allocation sites) that will be inline allocated, plus a
// structured provenance record per candidate — the reasons rejected
// candidates were dropped (reported in Figure 14 and EXPERIMENTS.md) and
// the evidence accepted candidates passed on.
type Decision struct {
	// Inlined is the final candidate set.
	Inlined map[analysis.FieldKey]bool
	// Rejected maps each rejected candidate (or non-candidate object
	// field) to the structured reason.
	Rejected map[analysis.FieldKey]Reason
	// Accepted maps each surviving candidate to the evidence chain it
	// passed: content checks, per-store PassByValue proofs, and global
	// consistency.
	Accepted map[analysis.FieldKey][]Step
	// ObjectFields is the Figure 14 denominator: every field that holds
	// objects, plus every array site holding objects.
	ObjectFields []analysis.FieldKey
}

func newDecision() *Decision {
	return &Decision{
		Inlined:  make(map[analysis.FieldKey]bool),
		Rejected: make(map[analysis.FieldKey]Reason),
		Accepted: make(map[analysis.FieldKey][]Step),
	}
}

// Has reports whether key was selected for inlining.
func (d *Decision) Has(k analysis.FieldKey) bool { return d.Inlined[k] }

// InlinedKeys returns the selected keys in deterministic order.
func (d *Decision) InlinedKeys() []analysis.FieldKey {
	out := make([]analysis.FieldKey, 0, len(d.Inlined))
	for k := range d.Inlined {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// reject drops a candidate, recording the first reason it was dropped for
// (later rejections of an already-rejected key keep the original record).
func (d *Decision) reject(k analysis.FieldKey, r Reason) {
	if d.Inlined[k] {
		delete(d.Inlined, k)
	}
	delete(d.Accepted, k)
	if _, dup := d.Rejected[k]; !dup {
		d.Rejected[k] = r
	}
}

// note appends evidence to a (still) accepted candidate's chain.
func (d *Decision) note(k analysis.FieldKey, s Step) {
	if d.Inlined[k] {
		d.Accepted[k] = append(d.Accepted[k], s)
	}
}

// decide runs use-specialization consistency plus assignment-
// specialization safety over the analysis result.
func decide(prog *ir.Program, res *analysis.Result, val *valuability) *Decision {
	d := newDecision()
	d.ObjectFields = append(res.ObjectFields(), res.ObjectArraySites()...)

	// Local candidate filters: field contents must be a single class of
	// plain objects, stored values must be original objects (NoField), and
	// every store must be convertible to a copy.
	ocsByKey := make(map[analysis.FieldKey][]*analysis.ObjContour)
	for _, oc := range res.Objs {
		for _, f := range oc.Class.Fields {
			k := analysis.FieldKey{Class: f.Owner, Name: f.Name}
			ocsByKey[k] = append(ocsByKey[k], oc)
		}
	}
	for _, k := range res.ObjectFields() {
		accept, rej := fieldLocallyInlinable(k, ocsByKey[k])
		if rej.Code != "" {
			d.reject(k, rej)
			continue
		}
		d.Inlined[k] = true
		d.Accepted[k] = accept
	}
	acsByKey := make(map[analysis.FieldKey][]*analysis.ArrContour)
	for _, ac := range res.Arrs {
		k := ac.ElemKey()
		acsByKey[k] = append(acsByKey[k], ac)
	}
	for _, k := range res.ObjectArraySites() {
		accept, rej := arrayLocallyInlinable(acsByKey[k])
		if rej.Code != "" {
			d.reject(k, rej)
			continue
		}
		d.Inlined[k] = true
		d.Accepted[k] = accept
	}

	// Assignment specialization: every store into a candidate must pass
	// the by-value check.
	checkStores(prog, res, val, d)

	// Containment cycles cannot be flattened.
	rejectContainmentCycles(ocsByKey, d)

	// Global consistency: iterate until every value's representation is
	// unambiguous under the surviving candidate set (the paper's "tags of
	// the given field must not be confused with tags from any other
	// field").
	pruneInconsistent(prog, res, d)
	for k := range d.Inlined {
		d.note(k, Step{
			What:   "globally-consistent",
			Detail: "every value the field's contents flow into resolves to a single representation",
		})
	}
	return d
}

// fieldLocallyInlinable checks the per-contour content conditions for an
// object field, returning either the evidence chain the field passed or
// the structured rejection.
func fieldLocallyInlinable(k analysis.FieldKey, ocs []*analysis.ObjContour) ([]Step, Reason) {
	sawContent := false
	contentClass := ""
	contours := 0
	for _, oc := range ocs {
		st := oc.FieldState(k.Name)
		if st.TS.IsEmpty() {
			continue // this contour never stores the field
		}
		where := oc.String() + "." + k.Name
		if st.TS.Prims != 0 {
			if st.TS.Prims == analysis.PNil && !st.TS.HasObjects() {
				continue
			}
			return nil, because(ReasonHoldsPrimitives, "field may hold nil or primitives",
				Step{What: "content-primitives", Where: where, Detail: "abstract content " + st.TS.String()})
		}
		if st.TS.HasArrays() {
			return nil, because(ReasonHoldsArrays, "field holds arrays (array-into-object inlining unsupported)",
				Step{What: "content-array", Where: where, Detail: "abstract content " + st.TS.String()})
		}
		classes := st.TS.Classes()
		if len(classes) != 1 {
			return nil, because(ReasonPolymorphic, fmt.Sprintf("field polymorphic within one contour (%v)", classes),
				Step{What: "content-polymorphic", Where: where,
					Detail: "one contour stores classes " + strings.Join(classes, ", ")})
		}
		heads, noField, top := st.Tags.Heads()
		if top {
			return nil, because(ReasonConfusedStores, "stored values have confused provenance",
				Step{What: "tag-confusion", Where: where, Detail: "stored-value tags " + st.Tags.String()})
		}
		if len(heads) > 0 || !noField {
			return nil, because(ReasonNotOriginal, "stored values are not original objects",
				Step{What: "stored-from-field", Where: where,
					Detail: "stored values carry field provenance " + st.Tags.String()})
		}
		sawContent = true
		contentClass = classes[0]
		contours++
	}
	if !sawContent {
		return nil, because(ReasonNeverStored, "field never stores an object")
	}
	return []Step{{
		What:   "content-monomorphic",
		Where:  k.String(),
		Detail: fmt.Sprintf("all stores hold class %s (checked over %d object contours)", contentClass, contours),
	}, {
		What:   "original-stores",
		Where:  k.String(),
		Detail: "every stored value is an original object (NoField provenance)",
	}}, Reason{}
}

func arrayLocallyInlinable(acs []*analysis.ArrContour) ([]Step, Reason) {
	elemClass := ""
	contours := 0
	for _, ac := range acs {
		st := &ac.Elem
		if st.TS.IsEmpty() {
			continue
		}
		where := ac.String()
		if st.TS.Prims != 0 || st.TS.HasArrays() {
			return nil, because(ReasonHoldsPrimitives, "elements may hold nil, primitives, or arrays",
				Step{What: "content-primitives", Where: where, Detail: "abstract element content " + st.TS.String()})
		}
		classes := st.TS.Classes()
		if len(classes) != 1 {
			return nil, because(ReasonPolymorphic, fmt.Sprintf("array polymorphic (%v)", classes),
				Step{What: "content-polymorphic", Where: where,
					Detail: "one contour's elements hold classes " + strings.Join(classes, ", ")})
		}
		if elemClass == "" {
			elemClass = classes[0]
		} else if elemClass != classes[0] {
			return nil, because(ReasonPolymorphic, "array site polymorphic across contours",
				Step{What: "content-polymorphic", Where: where,
					Detail: fmt.Sprintf("contours disagree on the element class (%s vs %s)", elemClass, classes[0])})
		}
		heads, noField, top := st.Tags.Heads()
		if top || len(heads) > 0 || !noField {
			return nil, because(ReasonNotOriginal, "stored elements are not original objects",
				Step{What: "stored-from-field", Where: where,
					Detail: "stored elements carry field provenance " + st.Tags.String()})
		}
		contours++
	}
	if elemClass == "" {
		return nil, because(ReasonNeverStored, "array never stores an object")
	}
	return []Step{{
		What:   "content-monomorphic",
		Detail: fmt.Sprintf("all element stores hold class %s (checked over %d array contours)", elemClass, contours),
	}, {
		What:   "original-stores",
		Detail: "every stored element is an original object (NoField provenance)",
	}}, Reason{}
}

// checkStores applies assignment specialization (§4.2) to every store
// into a candidate field or array, recording per-store evidence either
// way: a failing store carries the exact PassByValue violation, a passing
// one the positive proof.
func checkStores(prog *ir.Program, res *analysis.Result, val *valuability, d *Decision) {
	// Receiver type info is contour-level; collect, per function and
	// instruction, the union of receiver contours. Evidence is recorded
	// once per (candidate, store instruction), not per contour pair.
	type storeKey struct {
		k  analysis.FieldKey
		in *ir.Instr
	}
	noted := make(map[storeKey]bool)
	check := func(fn *ir.Func, in *ir.Instr, k analysis.FieldKey) {
		if !d.Inlined[k] || noted[storeKey{k, in}] {
			return
		}
		noted[storeKey{k, in}] = true
		if val.SafeStore(fn, in) {
			d.note(k, Step{
				What:   "store-convertible",
				Where:  in.Pos.String(),
				Detail: "store passes PassByValue and becomes a copy",
			})
			return
		}
		failMsg := fmt.Sprintf("store at %s not convertible to a copy (value may be aliased or used later)", in.Pos)
		if k.Array {
			failMsg = fmt.Sprintf("element store at %s not convertible to a copy", in.Pos)
		}
		d.reject(k, because(ReasonUnsafeStore, failMsg, val.ExplainStore(fn, in)...))
	}
	for _, mc := range res.Mcs {
		fn := mc.Fn
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			switch in.Op {
			case ir.OpSetField:
				base := mc.Reg(in.Args[0])
				for _, oc := range base.TS.ObjList() {
					if f := oc.Class.FieldNamed(in.Field.Name); f != nil {
						check(fn, in, analysis.FieldKey{Class: f.Owner, Name: f.Name})
					}
				}
			case ir.OpArrSet:
				base := mc.Reg(in.Args[0])
				for _, ac := range base.TS.ArrList() {
					check(fn, in, ac.ElemKey())
				}
			}
		})
	}
}

// rejectContainmentCycles drops candidates that would flatten a class into
// itself (directly or transitively). It is the one containment-cycle
// check: with every cycle among concrete classes gone, no object contour
// contains itself, so shapeOf's recursion over inlined fields terminates.
func rejectContainmentCycles(ocsByKey map[analysis.FieldKey][]*analysis.ObjContour, d *Decision) {
	for changed := true; changed; {
		changed = false
		// Edges: the container contour's own class -> the child's class,
		// per candidate field. Both ends are concrete, so a field a class
		// inherits is an edge of the class that holds it.
		type edge struct {
			key   analysis.FieldKey
			from  *ir.Class
			child *ir.Class
		}
		var edges []edge
		for k := range d.Inlined {
			if k.Array {
				continue // arrays are not classes; they cannot close a cycle
			}
			for _, oc := range ocsByKey[k] {
				for _, child := range oc.FieldState(k.Name).TS.ObjList() {
					edges = append(edges, edge{k, oc.Class, child.Class})
				}
			}
		}
		// DFS cycle detection over class containment.
		adj := make(map[*ir.Class][]edge)
		for _, e := range edges {
			adj[e.from] = append(adj[e.from], e)
		}
		var stack []*ir.Class
		onStack := make(map[*ir.Class]bool)
		visited := make(map[*ir.Class]bool)
		var dfs func(c *ir.Class) *analysis.FieldKey
		dfs = func(c *ir.Class) *analysis.FieldKey {
			visited[c] = true
			onStack[c] = true
			stack = append(stack, c)
			for _, e := range adj[c] {
				if onStack[e.child] {
					k := e.key
					return &k
				}
				if !visited[e.child] {
					if bad := dfs(e.child); bad != nil {
						return bad
					}
				}
			}
			onStack[c] = false
			stack = stack[:len(stack)-1]
			return nil
		}
		classes := make([]*ir.Class, 0, len(adj))
		for c := range adj {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i].ID < classes[j].ID })
		for _, c := range classes {
			if visited[c] {
				continue
			}
			stack = stack[:0]
			clear(onStack)
			if bad := dfs(c); bad != nil {
				names := make([]string, 0, len(stack))
				for _, sc := range stack {
					names = append(names, sc.Name)
				}
				d.reject(*bad, because(ReasonContainmentCycle,
					"containment cycle (class would inline into itself)",
					Step{What: "containment-cycle", Where: bad.String(),
						Detail: "containment chain " + strings.Join(names, " -> ")}))
				changed = true
				break
			}
		}
	}
}

// candidateContentClasses maps class names to the candidates whose content
// may be of that class. When confusion cannot be attributed through tags
// (a fully saturated tag set), any candidate whose containee classes
// overlap the value's classes could be involved and must go.
func candidateContentClasses(res *analysis.Result, d *Decision) map[string][]analysis.FieldKey {
	out := make(map[string][]analysis.FieldKey)
	add := func(k analysis.FieldKey, st *analysis.VarState) {
		for _, cls := range st.TS.Classes() {
			out[cls] = append(out[cls], k)
		}
	}
	for _, oc := range res.Objs {
		for _, f := range oc.Class.Fields {
			k := analysis.FieldKey{Class: f.Owner, Name: f.Name}
			if d.Has(k) {
				add(k, &oc.Fields[f.Slot])
			}
		}
	}
	for _, ac := range res.Arrs {
		if k := ac.ElemKey(); d.Has(k) {
			add(k, &ac.Elem)
		}
	}
	return out
}

// pruneInconsistent removes candidates until every object value's
// representation is unambiguous, and opaque uses (builtins, mixed identity
// comparisons, dynamic dispatch on array interiors) are rep-free.
//
// One resolver serves every round. Its predicate reads the live candidate
// set, so its memo is dropped after each rejection: a value later in the
// same round must see the rejected key as gone, exactly as a fresh
// resolution would.
func pruneInconsistent(prog *ir.Program, res *analysis.Result, d *Decision) {
	rs := newPruneResolver(res, func(k analysis.FieldKey) bool { return d.Inlined[k] })
	// budgetStep flags, on confusion-based rejections, that the analysis
	// ran out of contour budget — the split that would have kept the tags
	// apart never happened, so the confusion may be an artifact of the
	// MaxContours cap rather than true aliasing.
	var budgetStep []Step
	if res.Overflowed {
		budgetStep = []Step{{
			What: "contour-budget-exhausted",
			Detail: fmt.Sprintf("analysis hit MaxContours=%d and stopped splitting; tags from distinct contexts merged conservatively",
				res.Opts.MaxContours),
		}}
	}
	// Each round either rejects a candidate from the finite d.Inlined set
	// or ends the loop.
	for {
		removedAny := false
		byClass := candidateContentClasses(res, d)
		repable := repableContours(res, d)
		couldBeRep := func(ts *analysis.TypeSet) bool {
			for _, oc := range ts.ObjList() {
				if repable[oc] {
					return true
				}
			}
			return false
		}
		var confusedTS *analysis.TypeSet
		remove := func(rep analysis.Rep, tags *analysis.TagSet, code ReasonCode, reason string, ev Step) {
			keys := rep.Keys()
			if len(keys) == 0 {
				// Confusion without attribution: fall back to raw heads.
				keys, _, _ = tags.Heads()
			}
			if len(keys) == 0 && confusedTS != nil {
				// Fully saturated tags: attribute by class overlap (a key
				// listed twice is rejected once).
				for _, cls := range confusedTS.Classes() {
					keys = append(keys, byClass[cls]...)
				}
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
			evidence := append([]Step{ev}, budgetStep...)
			for _, k := range keys {
				if d.Inlined[k] {
					d.reject(k, because(code, reason, evidence...))
					rs.Reset()
					removedAny = true
				}
			}
		}
		checkValue := func(v *analysis.VarState, where string) {
			if !v.TS.HasObjects() || !couldBeRep(&v.TS) {
				return
			}
			confusedTS = &v.TS
			rep := rs.RepsOf(&v.Tags)
			switch {
			case rep.Confused:
				remove(rep, &v.Tags, ReasonTagConfusion, "value with confused provenance at "+where,
					Step{What: "tag-confusion", Where: where,
						Detail: "value tags " + v.Tags.String() + " resolve to confusion"})
			case rep.Raw && len(rep.Heads) > 0:
				remove(rep, &v.Tags, ReasonRawOrInlined, "value may be original object or inlined state at "+where,
					Step{What: "raw-inlined-mix", Where: where,
						Detail: "value tags " + v.Tags.String() + " resolve to both a raw object and inlined state"})
			case len(rep.Heads) > 1:
				if _, one := rep.Unique(); one {
					break
				}
				remove(rep, &v.Tags, ReasonMultipleFields, "value may come from several inlined fields at "+where,
					Step{What: "multi-field", Where: where,
						Detail: "value tags " + v.Tags.String() + " resolve to " + fieldNames(rep.Keys())})
			}
		}
		for _, mc := range res.Mcs {
			name := mc.Fn.FullName()
			for i := range mc.Regs {
				checkValue(&mc.Regs[i], name)
			}
			checkValue(&mc.Ret, name+" return")
		}
		for _, oc := range res.Objs {
			for i := range oc.Fields {
				checkValue(&oc.Fields[i], oc.Class.Name+" field")
			}
		}
		for _, ac := range res.Arrs {
			checkValue(&ac.Elem, "array element")
		}
		for i := range res.Globals {
			checkValue(&res.Globals[i], "global")
		}

		// Opaque uses.
		for _, mc := range res.Mcs {
			mc.Fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
				switch in.Op {
				case ir.OpBuiltin:
					for _, a := range in.Args {
						v := mc.Reg(a)
						if !v.TS.HasObjects() || !couldBeRep(&v.TS) {
							continue
						}
						confusedTS = &v.TS
						rep := rs.RepsOf(&v.Tags)
						if !rep.PureRaw() && (len(rep.Heads) > 0 || rep.Confused) {
							remove(rep, &v.Tags, ReasonEscapesBuiltin,
								"inlined value escapes to a builtin at "+in.Pos.String(),
								Step{What: "escapes-to-builtin", Where: in.Pos.String(),
									Detail: "builtins take raw references; an inlined rep cannot be handed to one"})
						}
					}
				case ir.OpBin:
					op := ir.BinOp(in.Aux)
					if op != ir.BinEq && op != ir.BinNe {
						return
					}
					x, y := mc.Reg(in.Args[0]), mc.Reg(in.Args[1])
					if !x.TS.HasObjects() && !y.TS.HasObjects() {
						return
					}
					confusedTS = &x.TS
					repX := rs.RepsOf(&x.Tags)
					repY := rs.RepsOf(&y.Tags)
					if len(repX.Heads) == 0 && len(repY.Heads) == 0 {
						return
					}
					// Identity is preserved only when both sides are reps
					// of the same single field, or one side can never be
					// an object.
					fx, okX := repX.Unique()
					fy, okY := repY.Unique()
					if okX && okY && fx == fy {
						return
					}
					if okX && !y.TS.HasObjects() {
						return
					}
					if okY && !x.TS.HasObjects() {
						return
					}
					repX.Add(repY)
					remove(repX, &x.Tags, ReasonIdentityCompare,
						"identity comparison mixes inlined and other values at "+in.Pos.String(),
						Step{What: "identity-comparison", Where: in.Pos.String(),
							Detail: "== / != on a value that may be an inlined rep does not preserve object identity"})
				case ir.OpCallMethod:
					// Dispatch on an array-interior rep must be statically
					// bound: require one tag and one target.
					recv := mc.Reg(in.Args[0])
					if !recv.TS.HasObjects() {
						return
					}
					confusedTS = &recv.TS
					rep := rs.RepsOf(&recv.Tags)
					k, ok := rep.Unique()
					if !ok || !k.Array {
						return
					}
					if len(mc.Targets[in.ID]) > 1 || recv.Tags.Len() > 1 {
						remove(rep, &recv.Tags, ReasonPolyDispatch,
							"polymorphic dispatch on array-inlined value at "+in.Pos.String(),
							Step{What: "polymorphic-dispatch", Where: in.Pos.String(),
								Detail: "dispatch on an array-interior rep needs a single static target"})
					}
				}
			})
		}
		if !removedAny {
			return
		}
	}
}

// pruneResolver is the tag-set resolution pruneInconsistent shares across
// its rounds: an *analysis.Resolver, behind an interface so tests can
// check every answer against a fresh resolution.
type pruneResolver interface {
	RepsOf(tags *analysis.TagSet) analysis.Rep
	Reset()
}

var newPruneResolver = func(res *analysis.Result, inlined func(analysis.FieldKey) bool) pruneResolver {
	return res.NewResolver(inlined)
}

func fieldNames(keys []analysis.FieldKey) string {
	names := make([]string, 0, len(keys))
	for _, k := range keys {
		names = append(names, k.String())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
