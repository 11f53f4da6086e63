package core

// Access to the optimizer's internals for the external tests in this
// directory (package core_test). They need the benchmark suite and the
// program generator, which import core themselves, so they cannot live in
// package core.

import (
	"fmt"
	"maps"
	"reflect"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// ResolutionCheck is what CheckResolution compared.
type ResolutionCheck struct {
	// Prune counts prune-loop resolutions compared against a fresh
	// Result.RepsOf; Resets the rejections that dropped the shared memo.
	Prune, Resets int
	// Transform counts values whose transformer rep was compared against
	// one computed with a fresh tag memo.
	Transform  int
	Mismatches []string
}

// CheckResolution optimizes prog, comparing every tag-set resolution the
// prune loop makes through its shared resolver against a fresh one-shot
// Result.RepsOf. Then, for every value of the analysis, it compares the
// succeeding transformer's rep through its shared tag memo against the
// rep computed with an empty memo.
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
		memo := tr.tagMemo
		tr.tagMemo = make(map[*analysis.Tag]*tagRes)
		fresh, freshErr := tr.repOfState(st)
		tr.tagMemo = memo
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
	want := r.res.RepsOf(tags, r.inlined)
	r.c.Prune++
	if got.Raw != want.Raw || got.Confused != want.Confused || !maps.Equal(got.Fields, want.Fields) {
		r.c.Mismatches = append(r.c.Mismatches, fmt.Sprintf("prune: tags %s: shared resolver %+v, fresh %+v",
			tags.String(), got, want))
	}
	return got
}

func (r *checkedResolver) Reset() {
	r.c.Resets++
	r.shared.Reset()
}

// PlanInstrs returns every instruction of every body plan built by the
// optimization attempt that succeeded.
func PlanInstrs(prog *ir.Program, res *analysis.Result, opts Options) ([]*ir.Instr, error) {
	_, tr, err := optimize(prog, res, opts)
	if err != nil {
		return nil, err
	}
	var out []*ir.Instr
	for _, p := range tr.plans {
		for _, b := range p.blocks {
			out = append(out, b...)
		}
	}
	return out, nil
}

// SigInstr is the clone-signature encoding of one instruction.
func SigInstr(in *ir.Instr) string { return string(sigInstr(nil, in)) }
