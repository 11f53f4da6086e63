// Package peephole performs conservative post-specialization cleanups on
// IR: copy propagation of single-definition moves, elimination of dead
// pure instructions, jump threading, and unreachable-block removal.
//
// Cloning and the inlining transformation leave debris behind — moves from
// elided field accesses, constants for unused implicit results, blocks
// orphaned by static binding. The Concert compiler relied on its backend
// (and method inlining) to clean these up; this pass is the reproduction's
// equivalent, applied identically to the baseline and inlining pipelines
// so Figure 15's code-size comparison stays fair.
package peephole

import "objinline/internal/ir"

// Program cleans every function in place and reports the number of
// instructions removed. The program must be verified before and remains
// verified after.
func Program(p *ir.Program) int {
	removed := 0
	for _, fn := range p.Funcs {
		removed += Func(fn)
	}
	return removed
}

// Func cleans one function to a local fixpoint.
func Func(fn *ir.Func) int {
	before := fn.CodeSize()
	for i := 0; i < 16; i++ {
		changed := copyPropagate(fn)
		changed = removeDeadPure(fn) || changed
		changed = threadJumps(fn) || changed
		changed = dropUnreachable(fn) || changed
		if !changed {
			break
		}
	}
	fn.Renumber()
	return before - fn.CodeSize()
}

// defCounts tallies definitions per register.
func defCounts(fn *ir.Func) []int {
	counts := make([]int, fn.NumRegs)
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Dst != ir.NoReg {
			counts[in.Dst]++
		}
	})
	return counts
}

// useCounts tallies argument uses per register.
func useCounts(fn *ir.Func) []int {
	counts := make([]int, fn.NumRegs)
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		for _, a := range in.Args {
			counts[a]++
		}
	})
	return counts
}

// copyPropagate replaces uses of y with x when `y = move x` is y's only
// definition and x is never redefined (single definition or a parameter
// with no definitions). Lowering and the transformation only produce such
// moves with the use strictly after the definition, so the substitution is
// sound.
func copyPropagate(fn *ir.Func) bool {
	defs := defCounts(fn)
	nParams := fn.NumParams
	if fn.Class != nil {
		nParams++
	}
	// subst[y] = x
	subst := make(map[ir.Reg]ir.Reg)
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		if in.Op != ir.OpMove {
			return
		}
		y, x := in.Dst, in.Args[0]
		if y == x {
			subst[y] = x // self-move: drop via dead-code (dst def remains)
			return
		}
		// Parameters carry an implicit entry definition, so any explicit
		// write makes them multi-def.
		if defs[y] != 1 || int(y) < nParams {
			return
		}
		// x must be stable: a parameter never redefined, or a single-def
		// register.
		stable := (int(x) < nParams && defs[x] == 0) || defs[x] == 1
		// Parameters are "defined" at entry; a single additional write
		// makes them unstable.
		if int(x) < nParams && defs[x] > 0 {
			stable = false
		}
		if !stable {
			return
		}
		subst[y] = x
	})
	if len(subst) == 0 {
		return false
	}
	// Resolve chains (y -> x -> w).
	resolve := func(r ir.Reg) ir.Reg {
		for i := 0; i < len(subst)+1; i++ {
			nxt, ok := subst[r]
			if !ok || nxt == r {
				return r
			}
			r = nxt
		}
		return r
	}
	changed := false
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		for i, a := range in.Args {
			if n := resolve(a); n != a {
				// Keep the move's own source intact (it becomes dead and
				// is removed by removeDeadPure).
				in.Args[i] = n
				changed = true
			}
		}
	})
	return changed
}

// pureRemovable reports whether the instruction can be deleted when its
// destination is never read: no side effects and no possible runtime trap
// (division, index checks, and field accesses on nil are kept so error
// behavior is preserved).
func pureRemovable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpConstInt, ir.OpConstFloat, ir.OpConstStr, ir.OpConstBool, ir.OpConstNil,
		ir.OpMove, ir.OpUn, ir.OpGetGlobal, ir.OpNewObject:
		return true
	case ir.OpBin:
		switch ir.BinOp(in.Aux) {
		case ir.BinDiv, ir.BinMod:
			return false // may trap on zero
		}
		return true
	}
	return false
}

// removeDeadPure deletes pure instructions whose destinations are unused.
func removeDeadPure(fn *ir.Func) bool {
	changed := false
	for {
		uses := useCounts(fn)
		any := false
		for _, b := range fn.Blocks {
			out := b.Instrs[:0]
			for _, in := range b.Instrs {
				dead := in.Dst != ir.NoReg && uses[in.Dst] == 0 && pureRemovable(in)
				selfMove := in.Op == ir.OpMove && in.Dst == in.Args[0]
				if dead || selfMove {
					any = true
					continue
				}
				out = append(out, in)
			}
			b.Instrs = out
		}
		if !any {
			return changed
		}
		changed = true
	}
}

// threadJumps redirects edges that land on single-jump blocks to the end
// of their chain. A block on a cycle of single jumps resolves to itself;
// a block leading into such a cycle resolves to the first cycle block its
// chain reaches.
func threadJumps(fn *ir.Func) bool {
	resolve := resolveJumps(fn)
	changed := false
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpJump:
			if n := resolve[in.Target]; n != in.Target {
				in.Target = n
				changed = true
			}
		case ir.OpBranch:
			if n := resolve[in.Target]; n != in.Target {
				in.Target = n
				changed = true
			}
			if n := resolve[in.Else]; n != in.Else {
				in.Else = n
				changed = true
			}
		}
	})
	return changed
}

// resolveJumps returns where each block's chain of single-jump blocks
// ends, in time linear in the number of blocks: a walk stops at the first
// block already resolved, then resolves every block it passed.
func resolveJumps(fn *ir.Func) []int {
	const unresolved, onPath = -1, -2
	next := func(i int) int {
		if b := fn.Blocks[i]; len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJump {
			return b.Instrs[0].Target
		}
		return i
	}
	res := make([]int, len(fn.Blocks))
	for i := range res {
		res[i] = unresolved
	}
	for i := range res {
		j := i
		for res[j] == unresolved {
			if next(j) == j {
				res[j] = j
				break
			}
			res[j] = onPath
			j = next(j)
		}
		end := res[j]
		if end == onPath {
			// The walk closed a cycle at j: the blocks on it resolve to
			// themselves, the ones before it to j.
			for c := j; res[c] == onPath; c = next(c) {
				res[c] = c
			}
			end = j
		}
		for k := i; res[k] == onPath; k = next(k) {
			res[k] = end
		}
	}
	return res
}

// dropUnreachable removes blocks not reachable from the entry and
// renumbers the rest.
func dropUnreachable(fn *ir.Func) bool {
	reachable := make([]bool, len(fn.Blocks))
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if reachable[i] {
			continue
		}
		reachable[i] = true
		last := fn.Blocks[i].Instrs[len(fn.Blocks[i].Instrs)-1]
		switch last.Op {
		case ir.OpJump:
			work = append(work, last.Target)
		case ir.OpBranch:
			work = append(work, last.Target, last.Else)
		}
	}
	all := true
	for _, r := range reachable {
		all = all && r
	}
	if all {
		return false
	}
	remap := make([]int, len(fn.Blocks))
	var kept []*ir.Block
	for i, b := range fn.Blocks {
		if reachable[i] {
			remap[i] = len(kept)
			b.ID = len(kept)
			kept = append(kept, b)
		}
	}
	fn.Blocks = kept
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpJump:
			in.Target = remap[in.Target]
		case ir.OpBranch:
			in.Target = remap[in.Target]
			in.Else = remap[in.Else]
		}
	})
	return true
}
