package core

import (
	"fmt"

	"objinline/internal/ir"
)

// Evidence for assignment specialization: ExplainStore runs safeHandoff,
// the walk that decided, in its recording mode, so a rejected store's
// chain names the exact origin, call site, or use that failed. It runs
// only after SafeStore already said no; the decision path builds no
// Steps.

// explainMaxDepth bounds how far the walk follows parameters into their
// call sites and factories into their returns. Three levels names the
// store, the offending call site, and the offending use there — enough
// to act on without unbounded recursion.
const explainMaxDepth = 3

// evidence collects the violated conditions of one recording walk;
// depth is the level of the handoff being walked (explainMaxDepth at the
// store).
type evidence struct {
	steps []Step
	depth int
}

func (ev *evidence) add(what, where, detail string, args ...any) {
	ev.steps = append(ev.steps, Step{What: what, Where: where, Detail: fmt.Sprintf(detail, args...)})
}

// deeper runs f one level further down the chain, unless the depth is
// spent.
func (ev *evidence) deeper(f func()) {
	if ev.depth <= 1 {
		return
	}
	ev.depth--
	f()
	ev.depth++
}

// ExplainStore returns the evidence chain of a store that SafeStore
// rejected: every violated PassByValue condition, ending at the use,
// origin, or call site that killed the conversion.
func (v *valuability) ExplainStore(fn *ir.Func, store *ir.Instr) []Step {
	valReg, ok := storedValue(store)
	if !ok {
		return []Step{{What: "not-a-store", Where: store.Pos.String()}}
	}
	ev := &evidence{depth: explainMaxDepth}
	ev.add("pass-by-value-failed", store.Pos.String(), "store in %s cannot be converted to a copy", fn.FullName())
	v.safeHandoff(fn, valReg, store, ev)
	return ev.steps
}

// explainFreshReturn records the first return of the factory fn that is
// not fresh, and why.
func (v *valuability) explainFreshReturn(fn *ir.Func, ev *evidence) {
	ev.deeper(func() {
		if ret := v.staleReturn(fn); ret != nil {
			ev.add("return-not-fresh", ret.Pos.String(), "")
			v.safeHandoff(fn, ret.Args[0], ret, ev)
		}
	})
}

// explainParam records the first call site that cannot pass fn's
// parameter reg by value, and why.
func (v *valuability) explainParam(fn *ir.Func, reg ir.Reg, ev *evidence) {
	ev.deeper(func() {
		site, argIdx, found := v.unsafeCallSite(fn, reg)
		if !found {
			return
		}
		if argIdx < 0 {
			ev.add("arg-untracked", site.in.Pos.String(), "call site's argument list does not map onto the parameter")
			return
		}
		ev.add("call-site-not-by-value", site.in.Pos.String(),
			"argument %d in %s cannot be handed off by value", argIdx, site.fn.FullName())
		v.safeHandoff(site.fn, site.in.Args[argIdx], site.in, ev)
	})
}
