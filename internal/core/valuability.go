// Package core implements the paper's primary contribution: the object-
// inlining decision (use specialization §4.1 + assignment specialization
// §4.2) and the program transformation (§5) that restructures classes,
// redirects uses of inlined fields to the container's inlined state, and
// turns assignments into copies.
package core

import (
	"sort"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// valuability implements the paper's assignment-specialization analysis
// (§4.2): a store into an inlinable field becomes a copy, which is safe
// only when the stored value could have been passed *by value* — it was
// created locally (or itself received by value at every call site), it is
// never stored anywhere else, and it is never used after the handoff.
//
// The predicates mirror the paper's: NoStore / DontStore over uses,
// UsesBefore/UsesAfter over the intraprocedural CFG, PassByValue over a
// handoff use, and CallByValue over every call edge of a parameter.
// safeHandoff is the one place these conditions are tested; the evidence
// that Explain reports is recorded by the same walk (explain.go).
type valuability struct {
	prog *ir.Program
	res  *analysis.Result

	// callees maps (fn, call-instr ID) to the possible target functions
	// (union over all contours).
	callees map[*ir.Func]map[int][]*ir.Func
	// callers lists, per function, the call sites that may invoke it.
	callers map[*ir.Func][]callSite

	readOnly map[paramKey]bool
	fresh    map[*ir.Func]int8 // 0 unknown, 1 yes, -1 no (FreshReturn)
	byValue  map[paramKey]int8
}

type paramKey struct {
	fn  *ir.Func
	reg ir.Reg // the parameter's register (self included)
}

type callSite struct {
	fn *ir.Func
	in *ir.Instr
}

func newValuability(prog *ir.Program, res *analysis.Result) *valuability {
	v := &valuability{
		prog:     prog,
		res:      res,
		callees:  make(map[*ir.Func]map[int][]*ir.Func),
		callers:  make(map[*ir.Func][]callSite),
		readOnly: make(map[paramKey]bool),
		fresh:    make(map[*ir.Func]int8),
		byValue:  make(map[paramKey]int8),
	}
	v.buildCallGraph()
	v.computeReadOnly()
	return v
}

// buildCallGraph flattens the contour-level call bindings to function
// level.
func (v *valuability) buildCallGraph() {
	type siteKey struct {
		fn *ir.Func
		id int
	}
	seen := make(map[siteKey]map[*ir.Func]bool)
	for _, mc := range v.res.Mcs {
		for id, callees := range mc.Callees {
			k := siteKey{mc.Fn, id}
			set := seen[k]
			if set == nil {
				set = make(map[*ir.Func]bool)
				seen[k] = set
			}
			for callee := range callees {
				set[callee.Fn] = true
			}
		}
	}
	instrOf := make(map[siteKey]*ir.Instr)
	for _, fn := range v.prog.Funcs {
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.IsCall() {
				instrOf[siteKey{fn, in.ID}] = in
			}
		})
	}
	for k, set := range seen {
		targets := make([]*ir.Func, 0, len(set))
		for fn := range set {
			targets = append(targets, fn)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i].ID < targets[j].ID })
		m := v.callees[k.fn]
		if m == nil {
			m = make(map[int][]*ir.Func)
			v.callees[k.fn] = m
		}
		m[k.id] = targets
		if in := instrOf[k]; in != nil {
			for _, t := range targets {
				v.callers[t] = append(v.callers[t], callSite{fn: k.fn, in: in})
			}
		}
	}
	// The seen map iterates in random order; sort each caller list so
	// everything derived from it — including which failing call site the
	// evidence shows — is deterministic.
	for _, sites := range v.callers {
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].fn.ID != sites[j].fn.ID {
				return sites[i].fn.ID < sites[j].fn.ID
			}
			return sites[i].in.ID < sites[j].in.ID
		})
	}
}

// computeReadOnly computes, to a greatest fixpoint, whether each parameter
// is treated as read-only by its function: never stored into persistent
// state (the paper's DontStore), never returned, and only passed on to
// parameters that are themselves read-only.
func (v *valuability) computeReadOnly() {
	// Optimistically mark every parameter read-only, then invalidate.
	for _, fn := range v.prog.Funcs {
		for _, r := range paramRegs(fn) {
			v.readOnly[paramKey{fn, r}] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range v.prog.Funcs {
			for _, r := range paramRegs(fn) {
				k := paramKey{fn, r}
				if !v.readOnly[k] {
					continue
				}
				if !v.paramIsReadOnly(fn, r) {
					v.readOnly[k] = false
					changed = true
				}
			}
		}
	}
}

func paramRegs(fn *ir.Func) []ir.Reg {
	n := fn.NumParams
	if fn.Class != nil {
		n++
	}
	regs := make([]ir.Reg, n)
	for i := range regs {
		regs[i] = ir.Reg(i)
	}
	return regs
}

// paramIsReadOnly checks one parameter against the current assumptions.
// Copying the parameter into a local (OpMove) extends the check to the
// copy.
func (v *valuability) paramIsReadOnly(fn *ir.Func, reg ir.Reg) bool {
	aliases := v.aliasSet(fn, reg)
	ok := true
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if !ok {
			return
		}
		if !usesAny(in, aliases) {
			return
		}
		if v.useStores(fn, in, aliases) {
			ok = false
		}
	})
	return ok
}

// aliasSet returns reg plus every register that is only ever a Move-copy
// of it (transitively).
func (v *valuability) aliasSet(fn *ir.Func, reg ir.Reg) map[ir.Reg]bool {
	aliases := map[ir.Reg]bool{reg: true}
	for changed := true; changed; {
		changed = false
		fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.Op == ir.OpMove && aliases[in.Args[0]] && !aliases[in.Dst] {
				// Only a pure alias if the destination has no other defs.
				if v.singleDef(fn, in.Dst, in) {
					aliases[in.Dst] = true
					changed = true
				}
			}
		})
	}
	return aliases
}

func (v *valuability) singleDef(fn *ir.Func, r ir.Reg, def *ir.Instr) bool {
	count := 0
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Dst == r {
			count++
		}
	})
	return count == 1 && def.Dst == r
}

func usesAny(in *ir.Instr, regs map[ir.Reg]bool) bool {
	for _, a := range in.Args {
		if regs[a] {
			return true
		}
	}
	return false
}

// useStores reports whether use `in` may store one of the aliased
// registers into persistent state (or lets it escape in a way we cannot
// track): the negation of the paper's DontStore, extended through calls.
func (v *valuability) useStores(fn *ir.Func, in *ir.Instr, aliases map[ir.Reg]bool) bool {
	switch in.Op {
	case ir.OpMove:
		// Alias moves were folded into the set; a move to a multiply-
		// defined register is an untracked copy.
		return !aliases[in.Dst]
	case ir.OpSetField:
		return aliases[in.Args[1]] // storing the value (receiver use is fine)
	case ir.OpArrSet:
		return aliases[in.Args[2]]
	case ir.OpSetGlobal:
		return aliases[in.Args[0]]
	case ir.OpReturn:
		return len(in.Args) > 0 && aliases[in.Args[0]]
	case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod:
		// Passing on is fine only into read-only parameters of every
		// possible callee.
		targets := v.callees[fn][in.ID]
		if len(targets) == 0 {
			return false // unreached call
		}
		for argIdx, a := range in.Args {
			if !aliases[a] {
				continue
			}
			for _, t := range targets {
				pr := calleeParamReg(in, t, argIdx)
				if pr == ir.NoReg || !v.readOnly[paramKey{t, pr}] {
					return true
				}
			}
		}
		return false
	case ir.OpBuiltin:
		// Builtins read their arguments (print formats, len measures);
		// none retains a reference.
		return false
	default:
		return false
	}
}

// calleeParamReg maps an argument index at a call instruction to the
// callee's parameter register.
func calleeParamReg(in *ir.Instr, callee *ir.Func, argIdx int) ir.Reg {
	switch in.Op {
	case ir.OpCall:
		if argIdx < callee.NumParams {
			return callee.ParamReg(argIdx)
		}
	case ir.OpCallStatic, ir.OpCallMethod:
		if callee.Class == nil {
			return ir.NoReg
		}
		if argIdx == 0 {
			return 0
		}
		if argIdx-1 < callee.NumParams {
			return callee.ParamReg(argIdx - 1)
		}
	}
	return ir.NoReg
}

// FreshReturn reports whether every value fn returns is a locally created
// object that has not been stored and is not otherwise retained — the
// factory-function extension noted in DESIGN.md.
func (v *valuability) FreshReturn(fn *ir.Func) bool {
	switch v.fresh[fn] {
	case 1:
		return true
	case -1:
		return false
	}
	v.fresh[fn] = -1 // pessimistic for recursion
	if v.staleReturn(fn) != nil {
		return false
	}
	v.fresh[fn] = 1
	return true
}

// staleReturn returns the first return of fn whose value cannot be
// handed off by value, or nil when every return is fresh.
func (v *valuability) staleReturn(fn *ir.Func) *ir.Instr {
	var stale *ir.Instr
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if stale != nil || in.Op != ir.OpReturn || len(in.Args) == 0 {
			return
		}
		if !v.safeHandoff(fn, in.Args[0], in, nil) {
			stale = in
		}
	})
	return stale
}

// SafeStore reports whether the value stored by `store` (a SetField or
// ArrSet instruction in fn) may be converted into a copy: the paper's
// PassByValue condition applied at the mutator's store site.
func (v *valuability) SafeStore(fn *ir.Func, store *ir.Instr) bool {
	valReg, ok := storedValue(store)
	return ok && v.safeHandoff(fn, valReg, store, nil)
}

// storedValue returns the register whose value store writes, or false
// when store is not a SetField or ArrSet.
func storedValue(store *ir.Instr) (ir.Reg, bool) {
	switch store.Op {
	case ir.OpSetField:
		return store.Args[1], true
	case ir.OpArrSet:
		return store.Args[2], true
	}
	return ir.NoReg, false
}

// safeHandoff checks the paper's PassByValue conditions for handing the
// value in register reg to `handoff` (a store, call, or return): every
// definition is by-value-producible, no other use stores it, and no use
// can execute after the handoff.
//
// With ev == nil this is the decision: it stops at the first violation
// and builds no Step. With ev set it records every violated condition
// (origins, then parameters, then uses), following non-fresh factories
// and non-by-value parameters to their first failing return or call
// site.
func (v *valuability) safeHandoff(fn *ir.Func, reg ir.Reg, handoff *ir.Instr, ev *evidence) bool {
	chain := v.defChain(fn, reg)
	if chain == nil {
		if ev != nil {
			ev.add("untracked-flow", fn.FullName(), "r%d's definitions are too tangled to track", reg)
		}
		return false
	}
	safe := true
	// Origin check: every root definition must produce a fresh value.
	for _, def := range chain.roots {
		switch def.Op {
		case ir.OpNewObject, ir.OpConstNil:
			// Locally created, or a nil initializer on a declaration.
		case ir.OpCall:
			if v.FreshReturn(def.Callee) {
				continue
			}
			safe = false
			if ev == nil {
				return false
			}
			ev.add("factory-not-fresh", def.Pos.String(),
				"value returned by %s, whose returns are not all fresh local objects", def.Callee.FullName())
			v.explainFreshReturn(def.Callee, ev)
		default:
			safe = false
			if ev == nil {
				return false
			}
			ev.add("origin-not-fresh", def.Pos.String(), "value defined by %s, not a local allocation", def.Op)
		}
	}
	// Parameter origins: CallByValue must hold at every call site.
	for _, pr := range chain.params {
		if v.ParamByValue(fn, pr) {
			continue
		}
		safe = false
		if ev == nil {
			return false
		}
		ev.add("param-not-call-by-value", fn.FullName(),
			"parameter r%d cannot be passed by value from every call site", pr)
		v.explainParam(fn, pr, ev)
	}
	// Use checks: no other use may store the value (DontStore), and no
	// use of the *same value* may run after the handoff (the copy would
	// expose stale state). A use is only dangerous when it is reachable
	// from the handoff without the used register being redefined on the
	// way — loop-carried re-creations are new values.
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if !safe && ev == nil || in == handoff || !usesAny(in, chain.regs) || chain.chainDefs[in] {
			return
		}
		if v.useStores(fn, in, chain.regs) {
			safe = false
			if ev != nil {
				ev.add("stored-elsewhere", in.Pos.String(),
					"value also escapes through %s, so the copy would not capture all aliases", in.Op)
			}
			return
		}
		for _, a := range in.Args {
			if chain.regs[a] && v.liveUseAfter(fn, handoff, in, a) {
				safe = false
				if ev != nil {
					ev.add("used-after-handoff", in.Pos.String(),
						"%s reads the value after the store, where the copy would expose stale state", in.Op)
				}
				return
			}
		}
	})
	return safe
}

// liveUseAfter reports whether instruction `use` (reading register x) can
// execute after `handoff` while x still holds the handed-off value — i.e.
// whether a path handoff→use exists that does not redefine x.
func (v *valuability) liveUseAfter(fn *ir.Func, handoff, use *ir.Instr, x ir.Reg) bool {
	// Locate the handoff's position.
	type pos struct {
		b   *ir.Block
		idx int
	}
	var start *pos
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in == handoff {
				start = &pos{b, i}
			}
		}
	}
	if start == nil {
		return true // unknown position: stay conservative
	}
	visited := make(map[int]bool) // by instruction ID
	var walk func(b *ir.Block, idx int) bool
	walk = func(b *ir.Block, idx int) bool {
		for i := idx; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if visited[in.ID] {
				return false
			}
			visited[in.ID] = true
			if in == use {
				return true
			}
			if in.Dst == x {
				return false // value killed on this path
			}
			if in.IsTerminator() {
				switch in.Op {
				case ir.OpJump:
					return walk(fn.Blocks[in.Target], 0)
				case ir.OpBranch:
					return walk(fn.Blocks[in.Target], 0) || walk(fn.Blocks[in.Else], 0)
				default:
					return false // return/trap: nothing after
				}
			}
		}
		return false
	}
	return walk(start.b, start.idx+1)
}

// defChain gathers the registers holding the value (through Move copies),
// the root (non-move) definitions, and any parameter origins. It returns
// nil when the flow is too tangled to track.
type chainInfo struct {
	regs      map[ir.Reg]bool
	roots     []*ir.Instr
	params    []ir.Reg
	chainDefs map[*ir.Instr]bool
}

func (v *valuability) defChain(fn *ir.Func, reg ir.Reg) *chainInfo {
	c := &chainInfo{regs: map[ir.Reg]bool{reg: true}, chainDefs: make(map[*ir.Instr]bool)}
	work := []ir.Reg{reg}
	visited := map[ir.Reg]bool{reg: true}
	for len(work) > 0 {
		r := work[len(work)-1]
		work = work[:len(work)-1]
		defs := v.defsOf(fn, r)
		if len(defs) == 0 {
			// No definition: a parameter register.
			if isParamReg(fn, r) {
				c.params = append(c.params, r)
				continue
			}
			return nil
		}
		for _, def := range defs {
			switch def.Op {
			case ir.OpMove:
				c.chainDefs[def] = true
				src := def.Args[0]
				if !visited[src] {
					visited[src] = true
					c.regs[src] = true
					work = append(work, src)
				}
			default:
				c.chainDefs[def] = true
				c.roots = append(c.roots, def)
			}
		}
		// Parameters can also be reassigned; if r is a param with defs it
		// still carries the incoming value.
		if isParamReg(fn, r) {
			c.params = append(c.params, r)
		}
	}
	return c
}

func isParamReg(fn *ir.Func, r ir.Reg) bool {
	n := fn.NumParams
	if fn.Class != nil {
		n++
	}
	return int(r) < n
}

func (v *valuability) defsOf(fn *ir.Func, r ir.Reg) []*ir.Instr {
	var out []*ir.Instr
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Dst == r {
			out = append(out, in)
		}
	})
	return out
}

// CollectRoots gathers the OpNewObject instructions (and FreshReturn
// factories' allocations) whose values feed the given safe store,
// following by-value parameters into every caller. The transformation
// stack-allocates these sites: after the copy the original is dead, so no
// heap allocation is needed — this is how the reproduction realizes the
// paper's "sub-objects are allocated with the container" savings (see
// DESIGN.md §2).
func (v *valuability) CollectRoots(fn *ir.Func, store *ir.Instr) []AllocSite {
	valReg, ok := storedValue(store)
	if !ok {
		return nil
	}
	var out []AllocSite
	visited := make(map[paramKey]bool)
	var walk func(fn *ir.Func, reg ir.Reg)
	walk = func(fn *ir.Func, reg ir.Reg) {
		chain := v.defChain(fn, reg)
		if chain == nil {
			return
		}
		for _, def := range chain.roots {
			switch def.Op {
			case ir.OpNewObject:
				out = append(out, AllocSite{Fn: fn, Instr: def})
			case ir.OpCall:
				// Fresh factory: collect its returned allocations.
				callee := def.Callee
				callee.Instrs(func(_ *ir.Block, in *ir.Instr) {
					if in.Op == ir.OpReturn && len(in.Args) > 0 {
						walk(callee, in.Args[0])
					}
				})
			}
		}
		for _, pr := range chain.params {
			k := paramKey{fn, pr}
			if visited[k] {
				continue
			}
			visited[k] = true
			for _, site := range v.callers[fn] {
				idx := argIndexFor(site.in, fn, pr)
				if idx >= 0 && idx < len(site.in.Args) {
					walk(site.fn, site.in.Args[idx])
				}
			}
		}
	}
	walk(fn, valReg)
	return out
}

// AllocSite names one allocation instruction within a function.
type AllocSite struct {
	Fn    *ir.Func
	Instr *ir.Instr
}

// ParamByValue implements the paper's CallByValue: parameter reg of fn may
// be passed by value if at *every* call site the argument could be handed
// off safely. Recursion is resolved pessimistically.
func (v *valuability) ParamByValue(fn *ir.Func, reg ir.Reg) bool {
	k := paramKey{fn, reg}
	switch v.byValue[k] {
	case 1:
		return true
	case -1:
		return false
	}
	v.byValue[k] = -1 // pessimistic while in progress
	if _, _, found := v.unsafeCallSite(fn, reg); found {
		return false
	}
	v.byValue[k] = 1 // vacuously so when fn is never called (dead code)
	return true
}

// unsafeCallSite returns the first call site of fn that cannot hand the
// argument for parameter reg off by value, with that argument's index
// (-1 when the argument list does not map onto the parameter). found is
// false when every call site can.
func (v *valuability) unsafeCallSite(fn *ir.Func, reg ir.Reg) (site callSite, argIdx int, found bool) {
	for _, site := range v.callers[fn] {
		argIdx := argIndexFor(site.in, fn, reg)
		if argIdx < 0 || argIdx >= len(site.in.Args) {
			return site, -1, true
		}
		if !v.safeHandoff(site.fn, site.in.Args[argIdx], site.in, nil) {
			return site, argIdx, true
		}
	}
	return callSite{}, 0, false
}

// argIndexFor maps a callee parameter register back to the argument index
// at a call instruction.
func argIndexFor(in *ir.Instr, callee *ir.Func, reg ir.Reg) int {
	switch in.Op {
	case ir.OpCall:
		return int(reg)
	case ir.OpCallStatic, ir.OpCallMethod:
		return int(reg) // self is Args[0], params follow
	}
	return -1
}
