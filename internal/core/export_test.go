package core

// Access to the optimizer's internals for the external tests in this
// directory (package core_test). They need the benchmark suite and the
// program generator, which import core themselves, so they cannot live in
// package core.

import (
	"fmt"
	"reflect"
	"slices"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// ResolutionCheck is what CheckResolution compared.
type ResolutionCheck struct {
	// Prune counts prune-loop resolutions compared against a fresh
	// Resolver; Resets the rejections that dropped the shared memo.
	Prune, Resets int
	// Transform counts values whose transformer rep was compared against
	// one computed with a fresh resolver and tag memo.
	Transform  int
	Mismatches []string
}

// CheckResolution optimizes prog, comparing every tag-set resolution the
// prune loop makes through its shared resolver against a fresh one. Then,
// for every value of the analysis, it compares the succeeding
// transformer's rep through its shared resolver and tag memo against the
// rep computed with empty ones.
func CheckResolution(prog *ir.Program, res *analysis.Result, opts Options) (ResolutionCheck, error) {
	var c ResolutionCheck
	saved := newPruneResolver
	defer func() { newPruneResolver = saved }()
	newPruneResolver = func(res *analysis.Result, inlined func(analysis.FieldKey) bool) pruneResolver {
		return &checkedResolver{res: res, inlined: inlined, shared: saved(res, inlined), c: &c}
	}
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return c, err
	}
	check := func(st *analysis.VarState, where string) {
		c.Transform++
		shared, sharedErr := tr.repOfState(st)
		rs, memo := tr.rs, tr.tagMemo
		tr.rs, tr.tagMemo = res.NewResolver(tr.d.Has), make(map[*analysis.Tag]*tagRes)
		fresh, freshErr := tr.repOfState(st)
		tr.rs, tr.tagMemo = rs, memo
		if !reflect.DeepEqual(shared, fresh) || !reflect.DeepEqual(sharedErr, freshErr) {
			c.Mismatches = append(c.Mismatches, fmt.Sprintf("transform %s (tags %s): shared memo %+v %v, fresh %+v %v",
				where, st.Tags.String(), shared, sharedErr, fresh, freshErr))
		}
	}
	for _, mc := range res.Mcs {
		for i := range mc.Regs {
			check(&mc.Regs[i], fmt.Sprintf("%s r%d", mc, i))
		}
		check(&mc.Ret, mc.String()+" return")
	}
	for _, oc := range res.Objs {
		for i := range oc.Fields {
			check(&oc.Fields[i], fmt.Sprintf("%s field %d", oc, i))
		}
	}
	for _, ac := range res.Arrs {
		check(&ac.Elem, ac.String()+" element")
	}
	for i := range res.Globals {
		check(&res.Globals[i], fmt.Sprintf("global %d", i))
	}
	return c, nil
}

// checkedResolver answers through the shared resolver and records every
// answer that differs from a fresh resolution under the same predicate.
type checkedResolver struct {
	res     *analysis.Result
	inlined func(analysis.FieldKey) bool
	shared  pruneResolver
	c       *ResolutionCheck
}

func (r *checkedResolver) RepsOf(tags *analysis.TagSet) analysis.Rep {
	got := r.shared.RepsOf(tags)
	want := r.res.NewResolver(r.inlined).RepsOf(tags)
	r.c.Prune++
	if got.Raw != want.Raw || got.Confused != want.Confused || !slices.Equal(got.Heads, want.Heads) {
		r.c.Mismatches = append(r.c.Mismatches, fmt.Sprintf("prune: tags %s: shared resolver %+v, fresh %+v",
			tags.String(), got, want))
	}
	return got
}

func (r *checkedResolver) Reset() {
	r.c.Resets++
	r.shared.Reset()
}

// PlanInstrs returns every rewritten instruction of every contour under
// the optimization attempt that succeeded, from a full plan of each
// (materialization plans only the group representatives).
func PlanInstrs(prog *ir.Program, res *analysis.Result, opts Options) ([]*ir.Instr, error) {
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return nil, err
	}
	var out []*ir.Instr
	for _, mc := range res.Mcs {
		p, err := tr.plan(mc)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %s", mc, err.reason)
		}
		for _, b := range p.blocks {
			out = append(out, b...)
		}
	}
	return out, nil
}

// SigInstr is the clone-signature encoding of one instruction.
func SigInstr(in *ir.Instr) string { return string(sigInstr(nil, in)) }

// SigningMismatches optimizes prog and, for every contour under the
// attempt that succeeded, compares the signature signing produced with
// the encoding of a full plan of the contour (its instructions, then its
// receiver versions), returning the contours where they differ.
func SigningMismatches(prog *ir.Program, res *analysis.Result, opts Options) ([]string, error) {
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, mc := range res.Mcs {
		sig, serr := tr.sign(mc)
		p, perr := tr.plan(mc)
		if serr != nil || perr != nil {
			return nil, fmt.Errorf("%s: sign %v, plan %v", mc, serr, perr)
		}
		var enc []byte
		for _, b := range p.blocks {
			for _, in := range b {
				enc = sigInstr(enc, in)
			}
		}
		for _, sv := range p.selfVersions {
			enc = append(enc, "self:"+sv.New.Name+"\n"...)
		}
		if string(enc) != sig {
			out = append(out, mc.String())
		}
	}
	return out, nil
}

// ClassVersions optimizes prog and returns every class version of the
// attempt that succeeded, in creation order.
func ClassVersions(prog *ir.Program, res *analysis.Result, opts Options) ([]*ClassVersion, error) {
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return nil, err
	}
	return tr.vs.list, nil
}

// StorePremises optimizes prog and checks, for every store into an
// inlined field or array under the attempt that succeeded, what emitCopy
// takes for granted: every stored contour has the containee's version,
// and the stored value's tags are all NoField. It returns the number of
// (store, container) pairs checked and a line per violation.
func StorePremises(prog *ir.Program, res *analysis.Result, opts Options) (int, []string, error) {
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return 0, nil, err
	}
	checked := 0
	var bad []string
	check := func(mc *analysis.MethodContour, in *ir.Instr, val *analysis.VarState, child *ClassVersion) {
		checked++
		for _, oc := range val.TS.ObjList() {
			if v := tr.vs.versionOf(oc); v != child {
				bad = append(bad, fmt.Sprintf("%s %s: stored %s has version %s, containee %s", mc, in, oc, v, child))
			}
		}
		if heads, _, top := val.Tags.Heads(); top || len(heads) > 0 {
			bad = append(bad, fmt.Sprintf("%s %s: stored tags %s are not all NoField", mc, in, val.Tags.String()))
		}
	}
	for _, mc := range res.Mcs {
		mc.Fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			switch in.Op {
			case ir.OpSetField:
				for _, oc := range mc.Reg(in.Args[0]).TS.ObjList() {
					f := oc.Class.FieldNamed(in.Field.Name)
					if f == nil || !tr.d.Has(analysis.FieldKey{Class: f.Owner, Name: f.Name}) {
						continue
					}
					check(mc, in, mc.Reg(in.Args[1]), tr.vs.versionOf(oc).Slots[f.Name].Child)
				}
			case ir.OpArrSet:
				for _, ac := range mc.Reg(in.Args[0]).TS.ArrList() {
					if av := tr.vs.arrs[ac.ElemKey()]; av != nil {
						check(mc, in, mc.Reg(in.Args[2]), av.Elem)
					}
				}
			}
		})
	}
	return checked, bad, nil
}
