package core

import (
	"fmt"
	"sort"

	"objinline/internal/analysis"
	"objinline/internal/clone"
	"objinline/internal/ir"
	"objinline/internal/lower"
)

// materializeResult is the output of one materialization attempt.
type materializeResult struct {
	prog     *ir.Program
	grouping *clone.Grouping
	// rejects lists candidates that must be dropped before retrying.
	rejects map[analysis.FieldKey]Reason
	// splitOCs lists object contours that need their own class subversion
	// (dynamic dispatch could not discriminate clones otherwise).
	splitOCs []*analysis.ObjContour
}

// materialize turns the transformer's rewrite into a new program: one
// function clone per compatible contour group, class versions with
// restructured layouts, statically bound calls wherever the analysis
// proved a single target, and per-site mangled dispatch names where
// several clones must coexist (§5.1).
func (t *transformer) materialize() (*materializeResult, error) {
	res := &materializeResult{rejects: make(map[analysis.FieldKey]Reason)}

	// Sign every contour; rewrite failures reject candidates.
	sigs := make(map[*analysis.MethodContour]string, len(t.res.Mcs))
	for _, mc := range t.res.Mcs {
		sig, err := t.sign(mc)
		if err != nil {
			if len(err.keys) == 0 {
				return nil, fmt.Errorf("core: unattributable rewrite failure in %s: %s", mc.Fn.FullName(), err.reason)
			}
			for _, k := range sortKeys(err.keys) {
				res.rejects[k] = because(ReasonRewriteFailure, err.reason,
					Step{What: "rewrite-unrealizable", Where: mc.Fn.FullName(), Detail: err.reason})
			}
			continue
		}
		sigs[mc] = sig
	}
	if len(res.rejects) > 0 {
		return res, nil
	}

	grouping := clone.Partition(t.res, func(mc *analysis.MethodContour) string { return sigs[mc] })
	res.grouping = grouping

	// Only the group representatives are emitted, so only they get a
	// full plan. Signing succeeded on the same rewrite, so planning
	// cannot fail.
	plans := make([]*bodyPlan, len(grouping.Groups))
	for i, grp := range grouping.Groups {
		p, err := t.plan(grp.Rep())
		if err != nil {
			return nil, fmt.Errorf("core: planning %s failed after signing: %s", grp.Rep().Fn.FullName(), err.reason)
		}
		plans[i] = p
	}

	// Dispatch-consistency pass: every dynamic site must discriminate its
	// callee groups by receiver class version. Where one version maps to
	// two groups, the class contours must split (the paper's class
	// cloning "based upon the object contours").
	needSplit := make(map[*analysis.ObjContour]bool)
	for i, grp := range grouping.Groups {
		mc, p := grp.Rep(), plans[i]
		for cp, origID := range p.callOrig {
			if cp.Op != ir.OpCallMethod {
				continue
			}
			groups := grouping.CalleeGroups(grp, origID)
			if len(groups) <= 1 {
				continue
			}
			if keys := p.dynRep[cp]; len(keys) > 0 {
				for _, k := range keys {
					res.rejects[k] = because(ReasonPolyDispatch,
						"polymorphic dispatch on inlined value at "+cp.Pos.String(),
						Step{What: "polymorphic-dispatch", Where: cp.Pos.String(),
							Detail: "dynamic dispatch site cannot discriminate clones of an inlined receiver"})
				}
				continue
			}
			// Raw receiver: version -> group must be a function.
			verGroup := make(map[*ClassVersion]*clone.Group)
			for callee := range mc.Callees[origID] {
				cg := grouping.GroupOf(callee)
				for _, oc := range callee.Regs[0].TS.ObjList() {
					v := t.vs.versionOf(oc)
					if prev, ok := verGroup[v]; ok && prev != cg {
						// Split every OC of this version by group.
						for callee2 := range mc.Callees[origID] {
							for _, oc2 := range callee2.Regs[0].TS.ObjList() {
								if t.vs.versionOf(oc2) == v {
									needSplit[oc2] = true
								}
							}
						}
					}
					verGroup[v] = cg
				}
			}
		}
	}
	if len(res.rejects) > 0 {
		return res, nil
	}
	if len(needSplit) > 0 {
		for oc := range needSplit {
			res.splitOCs = append(res.splitOCs, oc)
		}
		sort.Slice(res.splitOCs, func(i, j int) bool { return res.splitOCs[i].ID < res.splitOCs[j].ID })
		return res, nil
	}

	// Emit the new program.
	out := ir.NewProgram()
	for _, v := range t.vs.list {
		out.AddClass(v.New)
	}
	out.Globals = append(out.Globals, t.prog.Globals...)

	// Shells first so calls can reference clones.
	perFn := make(map[*ir.Func]int)
	for _, grp := range grouping.Groups {
		perFn[grp.Fn]++
	}
	for i, grp := range grouping.Groups {
		p := plans[i]
		name := grp.Fn.Name
		if perFn[grp.Fn] > 1 {
			name = fmt.Sprintf("%s$g%d", grp.Fn.Name, grp.ID)
		}
		var cls *ir.Class
		if grp.Fn.Class != nil {
			// bindMethod merges a receiver into every method contour's
			// self, so a method clone has at least one receiver version.
			cls = p.selfVersions[0].New
		}
		nf := &ir.Func{
			Name: name, Class: cls, NumParams: grp.Fn.NumParams,
			NumRegs: p.numRegs, Origin: grp.Fn,
		}
		out.AddFunc(nf)
		grp.NewFn = nf
	}

	// Bodies.
	for i, grp := range grouping.Groups {
		p := plans[i]
		nf := grp.NewFn
		for bi, instrs := range p.blocks {
			nb := &ir.Block{ID: bi, Instrs: make([]*ir.Instr, 0, len(instrs))}
			for _, in := range instrs {
				// The plan's own copy: emitted once, so taken as is.
				if origID, isCall := p.callOrig[in]; isCall {
					t.resolveCall(grouping, grp, in, origID)
				}
				nb.Instrs = append(nb.Instrs, in)
			}
			nf.Blocks = append(nf.Blocks, nb)
		}
	}

	// Dispatch registration: dynamic sites got mangled names during
	// resolveCall via pendingDispatch.
	for _, reg := range t.pendingDispatch {
		reg.ver.New.Methods[reg.name] = reg.target
	}
	t.pendingDispatch = nil

	// Entry points.
	for _, grp := range grouping.Groups {
		if grp.Fn == t.prog.Main {
			out.Main = grp.NewFn
			out.Main.Name = "main"
		}
		if grp.Fn.Class == nil && grp.Fn.Name == lower.InitFuncName {
			grp.NewFn.Name = lower.InitFuncName
		}
	}
	if out.Main == nil {
		return nil, fmt.Errorf("core: main was not materialized")
	}
	if err := out.Verify(); err != nil {
		return nil, fmt.Errorf("core: materialized program invalid: %w", err)
	}
	res.prog = out
	return res, nil
}

type dispatchReg struct {
	ver    *ClassVersion
	name   string
	target *ir.Func
}

// resolveCall fixes a call instruction's target against the grouping,
// in place: in is the group representative's plan's own copy.
func (t *transformer) resolveCall(grouping *clone.Grouping, grp *clone.Group, in *ir.Instr, origID int) {
	groups := grouping.CalleeGroups(grp, origID)
	switch {
	case len(groups) == 0:
		// Only a dispatch can be unbound (on nil, say): bindTopLevel binds
		// every direct call, and OpCallStatic constructs a fresh object.
		// The dispatch fails at run time with the original message.
	case len(groups) == 1:
		if in.Op == ir.OpCallMethod {
			in.Op = ir.OpCallStatic
			in.Method = ""
		}
		in.Callee = groups[0].NewFn
	default:
		// Several clones: keep the dispatch dynamic under a site-specific
		// mangled name registered on each receiver class version.
		mangled := fmt.Sprintf("%s$d%d_%d", in.Method, grp.ID, origID)
		mc := grp.Rep()
		for callee := range mc.Callees[origID] {
			cg := grouping.GroupOf(callee)
			for _, oc := range callee.Regs[0].TS.ObjList() {
				t.pendingDispatch = append(t.pendingDispatch, dispatchReg{
					ver: t.vs.versionOf(oc), name: mangled, target: cg.NewFn,
				})
			}
		}
		in.Method = mangled
	}
}
