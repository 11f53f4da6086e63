package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// carrierKind classifies the runtime representation of a value once
// inlining decisions are fixed.
type carrierKind int

const (
	carrierRaw   carrierKind = iota // the original heap object
	carrierCont                     // a container object holding the inlined state
	carrierInter                    // an interior reference into an inlined array
)

// carrier describes one possible runtime representation of a value.
type carrier struct {
	kind  carrierKind
	ver   *ClassVersion // carrierCont: the runtime container class version
	av    *ArrVersion   // carrierInter: the array's inlined layout
	base  int           // carrierCont: absolute first slot; carrierInter: offset within element state
	path  string        // mangled field-name prefix, e.g. "lower_left$"
	child *ClassVersion // version of the represented (inlined) object
}

// rewriteErr reports which candidates must be rejected for the rewrite to
// become possible.
type rewriteErr struct {
	keys   map[analysis.FieldKey]bool
	reason string
}

func (e *rewriteErr) Error() string { return e.reason }

func errKeys(reason string, keys ...analysis.FieldKey) *rewriteErr {
	m := make(map[analysis.FieldKey]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return &rewriteErr{keys: m, reason: reason}
}

// regRep is the resolved representation of one register in one contour.
type regRep struct {
	raw    bool
	conts  []carrier
	inters []carrier
}

func (r *regRep) isPlain() bool { return len(r.conts) == 0 && len(r.inters) == 0 }
func (r *regRep) hasReps() bool { return !r.isPlain() }
func (r *regRep) onlyConts() bool {
	return !r.raw && len(r.conts) > 0 && len(r.inters) == 0
}
func (r *regRep) onlyInters() bool {
	return !r.raw && len(r.inters) > 0 && len(r.conts) == 0
}

// transformer rewrites every contour's body under the current decision and
// version space.
type transformer struct {
	prog *ir.Program
	res  *analysis.Result
	d    *Decision
	vs   *versionSpace
	val  *valuability
	opts Options

	stackable map[*ir.Instr]bool // OpNewObject sites elided to cheap stack allocation
	// stackKeys records which inlined fields consume each stackable
	// site's objects — the provenance the payoff attribution joins
	// against runtime site profiles.
	stackKeys map[*ir.Instr][]analysis.FieldKey

	// repable marks object contours that may flow into a candidate field
	// or array — only those can ever be represented by a container. A
	// container contour outside this set is always raw, no matter how
	// confused its own provenance is.
	repable map[*analysis.ObjContour]bool

	tagMemo map[*analysis.Tag]*tagRes
	plans   map[*analysis.MethodContour]*bodyPlan

	// Materialization scratch state.
	pendingDispatch []dispatchReg
	deadVersions    []*ir.Class
}

type tagRes struct {
	raw      bool
	carriers []carrier
	err      *rewriteErr
}

func newTransformer(prog *ir.Program, res *analysis.Result, d *Decision, vs *versionSpace, val *valuability, opts Options) *transformer {
	t := &transformer{
		prog: prog, res: res, d: d, vs: vs, val: val, opts: opts,
		stackable: make(map[*ir.Instr]bool),
		stackKeys: make(map[*ir.Instr][]analysis.FieldKey),
		repable:   repableContours(res, d),
		tagMemo:   make(map[*analysis.Tag]*tagRes),
		plans:     make(map[*analysis.MethodContour]*bodyPlan),
	}
	t.findStackable()
	return t
}

// repableContours collects the object contours stored in candidate fields
// or candidate arrays (the only values whose representation changes).
func repableContours(res *analysis.Result, d *Decision) map[*analysis.ObjContour]bool {
	out := make(map[*analysis.ObjContour]bool)
	for _, oc := range res.Objs {
		for _, f := range oc.Class.Fields {
			k := analysis.FieldKey{Class: f.Owner, Name: f.Name}
			if !d.Has(k) {
				continue
			}
			for _, child := range oc.Fields[f.Slot].TS.ObjList() {
				out[child] = true
			}
		}
	}
	for _, ac := range res.Arrs {
		if !d.Has(arrKey(ac)) {
			continue
		}
		for _, child := range ac.Elem.TS.ObjList() {
			out[child] = true
		}
	}
	return out
}

// findStackable marks allocation sites whose objects are fully consumed by
// an inlined-field copy.
func (t *transformer) findStackable() {
	for _, mc := range t.res.Mcs {
		fn := mc.Fn
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			var keys []analysis.FieldKey
			switch in.Op {
			case ir.OpSetField:
				base := mc.Reg(in.Args[0])
				for _, oc := range base.TS.ObjList() {
					owner := fieldOwner(oc.Class, in.Field.Name)
					if owner == nil {
						continue
					}
					k := analysis.FieldKey{Class: owner, Name: in.Field.Name}
					if t.d.Has(k) {
						keys = appendKeyOnce(keys, k)
					}
				}
			case ir.OpArrSet:
				base := mc.Reg(in.Args[0])
				for _, ac := range base.TS.ArrList() {
					if k := arrKey(ac); t.d.Has(k) {
						keys = appendKeyOnce(keys, k)
					}
				}
			}
			if len(keys) == 0 {
				return
			}
			for _, site := range t.val.CollectRoots(fn, in) {
				t.stackable[site.Instr] = true
				for _, k := range keys {
					t.stackKeys[site.Instr] = appendKeyOnce(t.stackKeys[site.Instr], k)
				}
			}
		})
	}
}

// appendKeyOnce appends k unless already present; stackable sites see only
// a handful of keys, so the linear scan is fine.
func appendKeyOnce(keys []analysis.FieldKey, k analysis.FieldKey) []analysis.FieldKey {
	for _, have := range keys {
		if have == k {
			return keys
		}
	}
	return append(keys, k)
}

// stackProvenance flattens the stackable-site map into the exported
// provenance table, sorted by source position then class.
func (t *transformer) stackProvenance() []StackSite {
	out := make([]StackSite, 0, len(t.stackable))
	for in := range t.stackable {
		class := ""
		if in.Class != nil {
			class = in.Class.Name
		}
		fields := make([]string, 0, len(t.stackKeys[in]))
		for _, k := range t.stackKeys[in] {
			fields = append(fields, k.String())
		}
		sort.Strings(fields)
		out = append(out, StackSite{Pos: in.Pos.String(), Class: class, Fields: fields})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// resolveTag computes the carriers of one tag.
func (t *transformer) resolveTag(tag *analysis.Tag, guard map[*analysis.Tag]bool) *tagRes {
	if r, ok := t.tagMemo[tag]; ok {
		return r
	}
	switch {
	case tag.IsNoField():
		r := &tagRes{raw: true}
		t.tagMemo[tag] = r
		return r
	case tag.IsTop():
		return &tagRes{err: errKeys("confused provenance")}
	}
	if guard[tag] {
		// The cycle contributes no carriers; its finite entry paths appear
		// as sibling tags. Unlike analysis.Resolver, the memo keeps the
		// partial answers of the cycle's other members;
		// TestMemoizedResolutionMatchesFresh pins that no benchmark or
		// fuzz program observes the difference.
		return &tagRes{}
	}
	guard[tag] = true
	defer delete(guard, tag)

	key := tag.Head()
	var r tagRes
	if t.d.Has(key) {
		r = t.resolveInlinedTag(tag, key, guard)
	} else {
		// Not inlined: the value is whatever was stored; resolve the
		// content tags.
		var content *analysis.TagSet
		if ac := tag.HeadAC(); ac != nil {
			content = &ac.Elem.Tags
		} else if fs := tag.HeadOC().FieldState(tag.Field); fs != nil {
			content = &fs.Tags
		}
		if content == nil || content.Len() == 0 {
			r.raw = true // reads nil at run time
		} else {
			for _, ct := range content.List() {
				cr := t.resolveTag(ct, guard)
				if cr.err != nil {
					r.err = cr.err
					break
				}
				r.raw = r.raw || cr.raw
				r.carriers = append(r.carriers, cr.carriers...)
			}
		}
	}
	if r.err == nil {
		out := r
		t.tagMemo[tag] = &out
		return &out
	}
	return &r
}

// resolveInlinedTag handles tags whose head field is inlined: the value is
// a container rep; the base tag locates the container itself.
func (t *transformer) resolveInlinedTag(tag *analysis.Tag, key analysis.FieldKey, guard map[*analysis.Tag]bool) tagRes {
	var r tagRes
	if ac := tag.HeadAC(); ac != nil {
		av := t.vs.arrs[key]
		if av == nil {
			return tagRes{err: errKeys("array version missing", key)}
		}
		r.carriers = append(r.carriers, carrier{kind: carrierInter, av: av, base: 0, path: "", child: av.Elem})
		return r
	}
	oc := tag.HeadOC()
	ver := t.vs.versionOf(oc)
	si, ok := ver.Slots[tag.Field]
	if !ok || si.Plain {
		// Degraded empty-content candidate; reads nil.
		r.raw = true
		return r
	}
	var base *tagRes
	if !t.repable[oc] {
		// The container can never itself be inlined anywhere, so it is
		// necessarily raw — even when its own provenance tag saturated.
		base = &tagRes{raw: true}
	} else {
		base = t.resolveTag(tag.Base, guard)
		if base.err != nil {
			base.err.keys[key] = true
			return tagRes{err: base.err}
		}
	}
	if base.raw {
		r.carriers = append(r.carriers, carrier{
			kind: carrierCont, ver: ver, base: si.Base,
			path: tag.Field + "$", child: si.Child,
		})
	}
	for _, bc := range base.carriers {
		// The container is itself inlined somewhere: compose offsets.
		csi, ok := bc.child.Slots[tag.Field]
		if !ok || csi.Plain {
			return tagRes{err: errKeys("inconsistent nested layout for "+key.String(), key)}
		}
		nested := carrier{
			kind: bc.kind, ver: bc.ver, av: bc.av,
			base:  bc.base + csi.Base,
			path:  bc.path + tag.Field + "$",
			child: csi.Child,
		}
		r.carriers = append(r.carriers, nested)
	}
	return r
}

// repOf resolves a register's representation within a contour.
func (t *transformer) repOf(mc *analysis.MethodContour, reg ir.Reg) (*regRep, *rewriteErr) {
	st := mc.Reg(reg)
	return t.repOfState(st)
}

func (t *transformer) repOfState(st *analysis.VarState) (*regRep, *rewriteErr) {
	rep := &regRep{}
	if !st.TS.HasObjects() {
		// Arrays and primitives are always plain values; candidate array
		// *elements* appear as object-typed values, not here.
		rep.raw = true
		return rep, nil
	}
	if st.Tags.Len() == 0 {
		rep.raw = true
		return rep, nil
	}
	// A value none of whose possible objects can flow into a candidate is
	// necessarily raw: tags (even saturated ones) cannot make it a rep.
	anyRepable := false
	for oc := range st.TS.Objs {
		if t.repable[oc] {
			anyRepable = true
			break
		}
	}
	if !anyRepable {
		rep.raw = true
		return rep, nil
	}
	guard := make(map[*analysis.Tag]bool)
	for _, tag := range st.Tags.List() {
		r := t.resolveTag(tag, guard)
		if r.err != nil {
			if len(r.err.keys) == 0 {
				// Attribute to the raw heads so the retry loop shrinks.
				heads, _, _ := st.Tags.Heads()
				for _, h := range heads {
					if t.d.Has(h) {
						r.err.keys[h] = true
					}
				}
			}
			if len(r.err.keys) == 0 {
				// Fully saturated tags: attribute by class overlap, the
				// same fallback the decision uses.
				byClass := candidateContentClasses(t.res, t.d)
				for _, cls := range st.TS.Classes() {
					for _, k := range byClass[cls] {
						r.err.keys[k] = true
					}
				}
			}
			return nil, r.err
		}
		rep.raw = rep.raw || r.raw
		for _, c := range r.carriers {
			switch c.kind {
			case carrierCont:
				rep.conts = append(rep.conts, c)
			case carrierInter:
				rep.inters = append(rep.inters, c)
			}
		}
	}
	if err := rep.validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// validate enforces the representation-consistency rules a rewrite needs.
func (r *regRep) validate() *rewriteErr {
	involved := func() []analysis.FieldKey {
		var keys []analysis.FieldKey
		for _, c := range append(append([]carrier(nil), r.conts...), r.inters...) {
			keys = append(keys, carrierKeyOf(c))
		}
		return keys
	}
	if r.raw && (len(r.conts) > 0 || len(r.inters) > 0) {
		return errKeys("value may be raw or inlined", involved()...)
	}
	if len(r.conts) > 0 && len(r.inters) > 0 {
		return errKeys("value mixes container and array representations", involved()...)
	}
	if len(r.conts) > 1 {
		p := r.conts[0].path
		for _, c := range r.conts[1:] {
			if c.path != p {
				return errKeys("value reachable via different inlined paths", involved()...)
			}
		}
	}
	if len(r.inters) > 1 {
		base, child := r.inters[0].base, r.inters[0].child
		for _, c := range r.inters[1:] {
			if c.base != base || c.child != child {
				return errKeys("interior references disagree on layout", involved()...)
			}
		}
	}
	return nil
}

// carrierKeyOf recovers the candidate key a carrier belongs to (the last
// path segment names the field; the version identifies the class).
func carrierKeyOf(c carrier) analysis.FieldKey {
	if c.kind == carrierInter && c.path == "" {
		return c.av.Key
	}
	// Trim the trailing '$', take the last segment.
	p := strings.TrimSuffix(c.path, "$")
	if i := strings.LastIndex(p, "$"); i >= 0 {
		p = p[i+1:]
	}
	var owner *ir.Class
	if c.kind == carrierCont {
		owner = fieldOwner(c.ver.Orig, rootFieldName(c.path))
		if owner == nil {
			owner = c.ver.Orig
		}
		return analysis.FieldKey{Class: owner, Name: rootFieldName(c.path)}
	}
	return c.av.Key
}

// rootFieldName extracts the first path segment ("a$b$" -> "a").
func rootFieldName(path string) string {
	p := strings.TrimSuffix(path, "$")
	if i := strings.Index(p, "$"); i >= 0 {
		return p[:i]
	}
	return p
}

// bodyPlan is a rewritten function body for one contour, before call
// targets are resolved against the grouping.
type bodyPlan struct {
	mc      *analysis.MethodContour
	blocks  [][]*ir.Instr
	numRegs int
	sig     string
	// callOrig maps rewritten call instructions to the original
	// instruction ID (the key into mc.Callees).
	callOrig map[*ir.Instr]int
	// dynRep marks dispatch sites whose receiver is an inlined rep (must
	// resolve to a single clone).
	dynRep map[*ir.Instr][]analysis.FieldKey
	// selfVersions are the class versions of the receiver (methods only).
	selfVersions []*ClassVersion
}

// plan returns (building and caching) the rewritten body of a contour.
func (t *transformer) plan(mc *analysis.MethodContour) (*bodyPlan, *rewriteErr) {
	if p, ok := t.plans[mc]; ok {
		return p, nil
	}
	p, err := t.buildPlan(mc)
	if err != nil {
		return nil, err
	}
	t.plans[mc] = p
	return p, nil
}

func (t *transformer) buildPlan(mc *analysis.MethodContour) (*bodyPlan, *rewriteErr) {
	fn := mc.Fn
	p := &bodyPlan{
		mc:       mc,
		numRegs:  fn.NumRegs,
		callOrig: make(map[*ir.Instr]int),
		dynRep:   make(map[*ir.Instr][]analysis.FieldKey),
	}
	if fn.Class != nil {
		for _, oc := range mc.Reg(0).TS.ObjList() {
			v := t.vs.versionOf(oc)
			found := false
			for _, sv := range p.selfVersions {
				if sv == v {
					found = true
				}
			}
			if !found {
				p.selfVersions = append(p.selfVersions, v)
			}
		}
	}
	newReg := func() ir.Reg {
		r := ir.Reg(p.numRegs)
		p.numRegs++
		return r
	}
	var sig []byte
	for _, b := range fn.Blocks {
		var out []*ir.Instr
		emit := func(in *ir.Instr) *ir.Instr {
			out = append(out, in)
			return in
		}
		for _, in := range b.Instrs {
			if err := t.rewriteInstr(mc, in, emit, newReg, p); err != nil {
				return nil, err
			}
		}
		p.blocks = append(p.blocks, out)
		for _, in := range out {
			sig = sigInstr(sig, in)
		}
	}
	// Self versions participate in the signature (clones of different
	// receiver versions must not merge even with identical bodies, since
	// dispatch registration is per version).
	for _, sv := range p.selfVersions {
		sig = append(sig, "self:"...)
		sig = append(sig, sv.New.Name...)
		sig = append(sig, '\n')
	}
	p.sig = string(sig)
	return p, nil
}

// sigInstr appends a canonical encoding of one rewritten instruction to
// the grouping signature b. Unlike Instr.String, it captures the *complete*
// identity of field operands (owner class, slot, synthetic/interior flag):
// a raw access `Leaf.f0@0` and an interior-relative access `.f0@+0` print
// alike but address memory entirely differently, and merging their clones
// would hand one representation's code the other's values.
//
// The bytes are exactly those of the fmt rendering
// "%d %d[ %d...][ f=%s.%s@%d~%v][ c=%s][ t=%d][ m=%s] x=%d/%g/%q/%d/%d\n";
// clone.Partition orders groups by signature, so any change to them could
// renumber clones.
func sigInstr(b []byte, in *ir.Instr) []byte {
	b = strconv.AppendInt(b, int64(in.Op), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(in.Dst), 10)
	for _, a := range in.Args {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(a), 10)
	}
	if f := in.Field; f != nil {
		owner := "-"
		if f.Owner != nil {
			owner = f.Owner.Name
		}
		b = append(b, " f="...)
		b = append(b, owner...)
		b = append(b, '.')
		b = append(b, f.Name...)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(f.Slot), 10)
		b = append(b, '~')
		b = strconv.AppendBool(b, f.Synthetic)
	}
	if in.Class != nil {
		b = append(b, " c="...)
		b = append(b, in.Class.Name...)
	}
	if in.Callee != nil {
		b = append(b, " t="...)
		b = strconv.AppendInt(b, int64(in.Callee.ID), 10)
	}
	if in.Method != "" {
		b = append(b, " m="...)
		b = append(b, in.Method...)
	}
	b = append(b, " x="...)
	b = strconv.AppendInt(b, in.Aux, 10)
	b = append(b, '/')
	b = strconv.AppendFloat(b, in.F, 'g', -1, 64)
	b = append(b, '/')
	b = strconv.AppendQuote(b, in.S)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(in.Target), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(in.Else), 10)
	return append(b, '\n')
}

// rewriteInstr translates one instruction, appending the result(s) via
// emit.
func (t *transformer) rewriteInstr(mc *analysis.MethodContour, in *ir.Instr, emit func(*ir.Instr) *ir.Instr, newReg func() ir.Reg, p *bodyPlan) *rewriteErr {
	switch in.Op {
	case ir.OpGetField:
		return t.rewriteGetField(mc, in, emit)
	case ir.OpSetField:
		return t.rewriteSetField(mc, in, emit, newReg)
	case ir.OpArrGet:
		return t.rewriteArrGet(mc, in, emit)
	case ir.OpArrSet:
		return t.rewriteArrSet(mc, in, emit, newReg)
	case ir.OpNewObject:
		oc := mc.NewObjs[in.ID]
		cp := in.Clone()
		if oc != nil {
			cp.Class = t.vs.versionOf(oc).New
		}
		if t.stackable[in] {
			cp.Aux = 1 // cheap stack/arena allocation
		}
		emit(cp)
		return nil
	case ir.OpNewArray:
		ac := mc.NewArrs[in.ID]
		if ac != nil {
			if av := t.vs.arrs[arrKey(ac)]; av != nil {
				cp := in.Clone()
				cp.Op = ir.OpNewArrayInl
				cp.Class = av.Elem.New
				if av.Layout == LayoutParallel {
					cp.Aux = 1
				} else {
					cp.Aux = 0
				}
				emit(cp)
				return nil
			}
		}
		emit(in.Clone())
		return nil
	case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod:
		cp := in.Clone()
		p.callOrig[cp] = in.ID
		if in.Op == ir.OpCallMethod {
			rep, err := t.repOf(mc, in.Args[0])
			if err != nil {
				return err
			}
			if rep.hasReps() {
				var keys []analysis.FieldKey
				for _, c := range append(append([]carrier(nil), rep.conts...), rep.inters...) {
					keys = append(keys, carrierKeyOf(c))
				}
				p.dynRep[cp] = keys
			}
		}
		emit(cp)
		return nil
	default:
		emit(in.Clone())
		return nil
	}
}

// accessTarget computes how to address original field `name` through the
// receiver register, producing either a bound/named field for a direct
// access or the information that the field is inlined (the caller then
// elides or expands).
type accessTarget struct {
	// inlined: the receiver's field is itself inlined; reads become moves
	// and writes become copies.
	inlined bool
	// child is the inlined containee's version (for copies); dstBase and
	// interior describe the target location.
	child *ClassVersion

	// field is the operand for a direct single-slot access.
	field *ir.Field

	// For inlined targets: how to address slot i of the containee.
	slotField func(i int) *ir.Field
}

// fieldAccess resolves a field access on a receiver.
func (t *transformer) fieldAccess(mc *analysis.MethodContour, recvReg ir.Reg, name string) (*accessTarget, *rewriteErr) {
	rep, err := t.repOf(mc, recvReg)
	if err != nil {
		return nil, err
	}
	st := mc.Reg(recvReg)

	switch {
	case rep.isPlain() || !st.TS.HasObjects():
		// Raw object receiver (or unreached). Determine candidate-ness
		// across receiver contours.
		ocs := st.TS.ObjList()
		if len(ocs) == 0 {
			// Unreached: keep a name-only access.
			return &accessTarget{field: &ir.Field{Name: name, Slot: -1}}, nil
		}
		inlinedAny, plainAny := false, false
		var child *ClassVersion
		var bases []int
		var vers []*ClassVersion
		for _, oc := range ocs {
			owner := fieldOwner(oc.Class, name)
			if owner == nil {
				continue
			}
			k := analysis.FieldKey{Class: owner, Name: name}
			ver := t.vs.versionOf(oc)
			si, ok := ver.Slots[name]
			if !ok {
				continue
			}
			if t.d.Has(k) && !si.Plain {
				inlinedAny = true
				if child == nil {
					child = si.Child
				} else if child != si.Child {
					return nil, errKeys("receivers disagree on containee layout for "+name, k)
				}
				bases = append(bases, si.Base)
				vers = append(vers, ver)
			} else {
				plainAny = true
				bases = append(bases, si.NewSlot)
				vers = append(vers, ver)
			}
		}
		if inlinedAny && plainAny {
			// Same name inlined for some receivers, plain for others.
			var keys []analysis.FieldKey
			for _, oc := range ocs {
				if owner := fieldOwner(oc.Class, name); owner != nil {
					keys = append(keys, analysis.FieldKey{Class: owner, Name: name})
				}
			}
			return nil, errKeys("field "+name+" inlined for some receivers only", keys...)
		}
		if !inlinedAny {
			return &accessTarget{field: t.plainField(vers, bases, name)}, nil
		}
		// Inlined on a raw container object.
		at := &accessTarget{inlined: true, child: child}
		base := bases[0]
		uniform := true
		for _, b := range bases {
			if b != base {
				uniform = false
			}
		}
		ver := vers[0]
		at.slotField = func(i int) *ir.Field {
			cf := child.New.Fields[i]
			if uniform && len(vers) >= 1 {
				if f := fieldAt(ver.New, base+i); f != nil && sameOwnerAll(vers, base+i, name+"$"+cf.Name) {
					return f
				}
			}
			return &ir.Field{Name: name + "$" + cf.Name, Slot: -1}
		}
		return at, nil

	case rep.onlyConts():
		// The receiver is itself a container rep: address through the
		// outer container.
		c0 := rep.conts[0]
		si, ok := c0.child.Slots[name]
		if !ok {
			return nil, errKeys("containee version lacks field " + name)
		}
		if !si.Plain {
			// Nested inlined field.
			for _, c := range rep.conts[1:] {
				si2, ok := c.child.Slots[name]
				if !ok || si2.Plain || si2.Child != si.Child {
					return nil, errKeys("nested layouts disagree for "+name, carrierKeyOf(c))
				}
			}
			return &accessTarget{inlined: true, child: si.Child, slotField: t.contSlotFn(rep.conts, name, si)}, nil
		}
		// Plain slot of the containee.
		return &accessTarget{field: t.contField(rep.conts, name, si)}, nil

	case rep.onlyInters():
		c0 := rep.inters[0]
		si, ok := c0.child.Slots[name]
		if !ok {
			return nil, errKeys("array element version lacks field " + name)
		}
		if !si.Plain {
			return &accessTarget{inlined: true, child: si.Child, slotField: func(i int) *ir.Field {
				cf := si.Child.New.Fields[i]
				return &ir.Field{Name: c0.path + name + "$" + cf.Name, Slot: c0.base + si.Base + i, Synthetic: true}
			}}, nil
		}
		return &accessTarget{field: &ir.Field{Name: c0.path + name, Slot: c0.base + si.NewSlot, Synthetic: true}}, nil
	}
	return nil, errKeys("inconsistent receiver representation for field " + name)
}

// plainField binds a plain access: when all receiver versions agree on the
// slot, bind to a concrete field; otherwise fall back to a by-name access
// (correct in every version because plain fields keep their source names).
func (t *transformer) plainField(vers []*ClassVersion, slots []int, name string) *ir.Field {
	if len(vers) == 0 {
		return &ir.Field{Name: name, Slot: -1}
	}
	uniform := true
	for _, s := range slots {
		if s != slots[0] {
			uniform = false
		}
	}
	if uniform {
		if f := fieldAt(vers[0].New, slots[0]); f != nil {
			return f
		}
	}
	return &ir.Field{Name: name, Slot: -1}
}

// contField addresses a plain slot of a containee through its container.
func (t *transformer) contField(conts []carrier, name string, si SlotInfo) *ir.Field {
	abs := conts[0].base + si.NewSlot
	uniform := true
	for _, c := range conts[1:] {
		si2, ok := c.child.Slots[name]
		if !ok || !si2.Plain || c.base+si2.NewSlot != abs {
			uniform = false
		}
	}
	if uniform && len(conts) >= 1 {
		sameVer := true
		for _, c := range conts[1:] {
			if c.ver != conts[0].ver {
				sameVer = false
			}
		}
		if sameVer {
			if f := fieldAt(conts[0].ver.New, abs); f != nil {
				return f
			}
		}
	}
	// Mangled-name fallback: the name resolves per version at run time.
	return &ir.Field{Name: conts[0].path + name, Slot: -1}
}

func (t *transformer) contSlotFn(conts []carrier, name string, si SlotInfo) func(int) *ir.Field {
	return func(i int) *ir.Field {
		cf := si.Child.New.Fields[i]
		mangled := conts[0].path + name + "$" + cf.Name
		if len(conts) == 1 {
			if f := fieldAt(conts[0].ver.New, conts[0].base+si.Base+i); f != nil {
				return f
			}
		}
		return &ir.Field{Name: mangled, Slot: -1}
	}
}

// fieldAt returns the field at a slot of a class, or nil.
func fieldAt(c *ir.Class, slot int) *ir.Field {
	if slot < 0 || slot >= len(c.Fields) {
		return nil
	}
	return c.Fields[slot]
}

// sameOwnerAll reports whether every version has the given mangled name at
// the same slot.
func sameOwnerAll(vers []*ClassVersion, slot int, name string) bool {
	for _, v := range vers {
		f := fieldAt(v.New, slot)
		if f == nil || f.Name != name {
			return false
		}
	}
	return true
}

func (t *transformer) rewriteGetField(mc *analysis.MethodContour, in *ir.Instr, emit func(*ir.Instr) *ir.Instr) *rewriteErr {
	at, err := t.fieldAccess(mc, in.Args[0], in.Field.Name)
	if err != nil {
		return err
	}
	if at.inlined {
		// The access is elided: the loaded value is represented by the
		// receiver itself (§5.3, Figure 12).
		emit(&ir.Instr{Op: ir.OpMove, Dst: in.Dst, Args: []ir.Reg{in.Args[0]}, Pos: in.Pos})
		return nil
	}
	cp := in.Clone()
	cp.Field = at.field
	emit(cp)
	return nil
}

func (t *transformer) rewriteSetField(mc *analysis.MethodContour, in *ir.Instr, emit func(*ir.Instr) *ir.Instr, newReg func() ir.Reg) *rewriteErr {
	at, err := t.fieldAccess(mc, in.Args[0], in.Field.Name)
	if err != nil {
		return err
	}
	if !at.inlined {
		cp := in.Clone()
		cp.Field = at.field
		emit(cp)
		return nil
	}
	// Assignment specialization (§5.4): expand into per-slot copies.
	return t.emitCopy(mc, in, in.Args[0], in.Args[1], at, emit, newReg)
}

// emitCopy copies the value's state into the inlined target location.
func (t *transformer) emitCopy(mc *analysis.MethodContour, in *ir.Instr, dstReg, srcReg ir.Reg, at *accessTarget, emit func(*ir.Instr) *ir.Instr, newReg func() ir.Reg) *rewriteErr {
	srcRep, err := t.repOf(mc, srcReg)
	if err != nil {
		return err
	}
	if srcRep.hasReps() {
		return errKeys("copied value is itself an inlined rep (aliasing unsafe)",
			analysis.FieldKey{Class: nil, Name: in.Field.Name})
	}
	// Source slot layout: the stored object's version must match the
	// containee version (ensured by the shape interning).
	st := mc.Reg(srcReg)
	var srcVer *ClassVersion
	for _, oc := range st.TS.ObjList() {
		v := t.vs.versionOf(oc)
		if srcVer == nil {
			srcVer = v
		} else if srcVer != v {
			return errKeys("stored values disagree on layout")
		}
	}
	if srcVer == nil {
		// Unreached store.
		emit(in.Clone())
		return nil
	}
	if srcVer != at.child {
		return errKeys(fmt.Sprintf("stored version %s != containee version %s", srcVer, at.child))
	}
	n := len(at.child.New.Fields)
	for i := 0; i < n; i++ {
		tmp := newReg()
		emit(&ir.Instr{Op: ir.OpGetField, Dst: tmp, Args: []ir.Reg{srcReg}, Field: srcVer.New.Fields[i], Pos: in.Pos})
		emit(&ir.Instr{Op: ir.OpSetField, Dst: ir.NoReg, Args: []ir.Reg{dstReg, tmp}, Field: at.slotField(i), Pos: in.Pos})
	}
	return nil
}

func (t *transformer) rewriteArrGet(mc *analysis.MethodContour, in *ir.Instr, emit func(*ir.Instr) *ir.Instr) *rewriteErr {
	inl, err := t.arrInlined(mc, in.Args[0])
	if err != nil {
		return err
	}
	if inl == nil {
		emit(in.Clone())
		return nil
	}
	cp := in.Clone()
	cp.Op = ir.OpArrInterior
	emit(cp)
	return nil
}

func (t *transformer) rewriteArrSet(mc *analysis.MethodContour, in *ir.Instr, emit func(*ir.Instr) *ir.Instr, newReg func() ir.Reg) *rewriteErr {
	inl, err := t.arrInlined(mc, in.Args[0])
	if err != nil {
		return err
	}
	if inl == nil {
		emit(in.Clone())
		return nil
	}
	// Interior pointer, then per-slot copies (§5.3, Figure 13).
	itReg := newReg()
	emit(&ir.Instr{Op: ir.OpArrInterior, Dst: itReg, Args: []ir.Reg{in.Args[0], in.Args[1]}, Pos: in.Pos})
	at := &accessTarget{inlined: true, child: inl.Elem, slotField: func(i int) *ir.Field {
		cf := inl.Elem.New.Fields[i]
		return &ir.Field{Name: cf.Name, Slot: i, Synthetic: true}
	}}
	fake := &ir.Instr{Op: ir.OpSetField, Field: &ir.Field{Name: "[]"}, Pos: in.Pos}
	return t.emitCopy(mc, fake, itReg, in.Args[2], at, emit, newReg)
}

// arrInlined reports the array version when the register's arrays are
// inlined; mixing inlined and plain arrays is a rewrite conflict.
func (t *transformer) arrInlined(mc *analysis.MethodContour, reg ir.Reg) (*ArrVersion, *rewriteErr) {
	st := mc.Reg(reg)
	var av *ArrVersion
	plain := false
	for _, ac := range st.TS.ArrList() {
		k := arrKey(ac)
		if t.d.Has(k) {
			v := t.vs.arrs[k]
			if av == nil {
				av = v
			} else if av != v {
				return nil, errKeys("arrays disagree on inlined layout", k, av.Key)
			}
		} else {
			plain = true
		}
	}
	if av != nil && plain {
		return nil, errKeys("value mixes inlined and plain arrays", av.Key)
	}
	return av, nil
}

// sortKeys renders a deterministic key list for error messages.
func sortKeys(m map[analysis.FieldKey]bool) []analysis.FieldKey {
	out := make([]analysis.FieldKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
