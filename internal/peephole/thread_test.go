package peephole

import (
	"math/rand"
	"testing"

	"objinline/internal/ir"
)

// walkResolve is the reference resolution: follow single-jump blocks from
// i until a block that is not one, or until the walk revisits a block.
func walkResolve(fn *ir.Func, i int) int {
	seen := map[int]bool{}
	for !seen[i] {
		seen[i] = true
		b := fn.Blocks[i]
		if len(b.Instrs) != 1 || b.Instrs[0].Op != ir.OpJump || b.Instrs[0].Target == i {
			return i
		}
		i = b.Instrs[0].Target
	}
	return i
}

func jump(t int) *ir.Block { return &ir.Block{Instrs: []*ir.Instr{{Op: ir.OpJump, Target: t}}} }

func branch(t, e int) *ir.Block {
	return &ir.Block{Instrs: []*ir.Instr{{Op: ir.OpBranch, Target: t, Else: e}}}
}

func ret() *ir.Block { return &ir.Block{Instrs: []*ir.Instr{{Op: ir.OpReturn}}} }

func cfg(blocks ...*ir.Block) *ir.Func {
	for i, b := range blocks {
		b.ID = i
	}
	return &ir.Func{Name: "f", Blocks: blocks}
}

// chain is an entry branch to a chain of n single-jump blocks ending in a
// return, with the branch's else arm on that return.
func chain(n int) *ir.Func {
	blocks := []*ir.Block{branch(1, n+1)}
	for i := 1; i <= n; i++ {
		blocks = append(blocks, jump(i+1))
	}
	return cfg(append(blocks, ret())...)
}

// checkThreaded threads fn and compares every jump and branch target with
// the reference walk over fn as it was.
func checkThreaded(t *testing.T, name string, fn *ir.Func) {
	t.Helper()
	type edge struct {
		in          *ir.Instr
		target, els int
	}
	var want []edge
	fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpJump:
			want = append(want, edge{in, walkResolve(fn, in.Target), 0})
		case ir.OpBranch:
			want = append(want, edge{in, walkResolve(fn, in.Target), walkResolve(fn, in.Else)})
		}
	})
	threadJumps(fn)
	for _, w := range want {
		if w.in.Target != w.target || (w.in.Op == ir.OpBranch && w.in.Else != w.els) {
			t.Errorf("%s: %v threaded to %d/%d, reference walk gives %d/%d",
				name, w.in.Op, w.in.Target, w.in.Else, w.target, w.els)
		}
	}
}

func TestThreadJumpsMatchesWalk(t *testing.T) {
	checkThreaded(t, "long chain", chain(500))
	// 0 -> 1 -> 2 -> 3 -> 4 -> 2: a chain into a three-block cycle.
	checkThreaded(t, "chain into cycle", cfg(branch(1, 5), jump(2), jump(3), jump(4), jump(2), ret()))
	checkThreaded(t, "self-jump", cfg(branch(1, 2), jump(1), ret()))
	// Both arms of the branch share the chain 3 -> 4.
	checkThreaded(t, "shared chain", cfg(branch(1, 2), jump(3), jump(3), jump(4), ret()))

	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		blocks := make([]*ir.Block, 1+rng.Intn(12))
		for i := range blocks {
			switch rng.Intn(4) {
			case 0:
				blocks[i] = ret()
			case 1:
				blocks[i] = branch(rng.Intn(len(blocks)), rng.Intn(len(blocks)))
			default:
				blocks[i] = jump(rng.Intn(len(blocks)))
			}
		}
		checkThreaded(t, "random", cfg(blocks...))
	}
}

// TestThreadJumpsAllocations holds threading to its one allocation, the
// resolution table, however long the chains it resolves.
func TestThreadJumpsAllocations(t *testing.T) {
	const n = 1000
	fn := chain(n)
	allocs := testing.AllocsPerRun(10, func() {
		for i := 1; i <= n; i++ {
			fn.Blocks[i].Instrs[0].Target = i + 1
		}
		fn.Blocks[0].Instrs[0].Target = 1
		threadJumps(fn)
	})
	if allocs > 1 {
		t.Errorf("threading a %d-block chain allocates %v times, want 1", n, allocs)
	}
}
