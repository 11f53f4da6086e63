package vm_test

// VM-level semantics of the transformation's runtime support: inlined
// arrays (element-major and parallel layouts), interior references, and
// their error paths — tested on hand-built IR, independent of the
// transformation that normally emits these ops.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"objinline/internal/ir"
	"objinline/internal/vm"
)

// buildInlinedArrayProg constructs:
//
//	main:
//	  a = newarray.inl[layout] 3 of Pt      (Pt has fields x,y)
//	  it = &a[1]
//	  it.x(slot0) = 7 ; it.y(slot1) = 9
//	  r = it.x + it.y
//	  print(r)
//	  it2 = &a[1]
//	  print(it == it2)
//	  print(len-check via plain index error? no) return
func buildInlinedArrayProg(parallel bool) *ir.Program {
	p := ir.NewProgram()
	pt := p.AddClass(&ir.Class{Name: "Pt", Methods: map[string]*ir.Func{}})
	pt.Fields = []*ir.Field{
		{Name: "x", Slot: 0, Owner: pt},
		{Name: "y", Slot: 1, Owner: pt},
	}
	relX := &ir.Field{Name: "x", Slot: 0, Synthetic: true}
	relY := &ir.Field{Name: "y", Slot: 1, Synthetic: true}

	aux := int64(0)
	if parallel {
		aux = 1
	}
	main := &ir.Func{Name: "main", NumRegs: 10}
	main.Blocks = []*ir.Block{{ID: 0, Instrs: []*ir.Instr{
		{Op: ir.OpConstInt, Dst: 0, Aux: 3},
		{Op: ir.OpNewArrayInl, Dst: 1, Args: []ir.Reg{0}, Class: pt, Aux: aux},
		{Op: ir.OpConstInt, Dst: 2, Aux: 1},
		{Op: ir.OpArrInterior, Dst: 3, Args: []ir.Reg{1, 2}},
		{Op: ir.OpConstInt, Dst: 4, Aux: 7},
		{Op: ir.OpSetField, Dst: ir.NoReg, Args: []ir.Reg{3, 4}, Field: relX},
		{Op: ir.OpConstInt, Dst: 5, Aux: 9},
		{Op: ir.OpSetField, Dst: ir.NoReg, Args: []ir.Reg{3, 5}, Field: relY},
		{Op: ir.OpGetField, Dst: 6, Args: []ir.Reg{3}, Field: relX},
		{Op: ir.OpGetField, Dst: 7, Args: []ir.Reg{3}, Field: relY},
		{Op: ir.OpBin, Dst: 8, Args: []ir.Reg{6, 7}, Aux: int64(ir.BinAdd)},
		{Op: ir.OpBuiltin, Dst: 9, Args: []ir.Reg{8}, Aux: int64(ir.BPrint)},
		// Interior identity: a fresh interior ref to the same element is
		// identical.
		{Op: ir.OpArrInterior, Dst: 6, Args: []ir.Reg{1, 2}},
		{Op: ir.OpBin, Dst: 7, Args: []ir.Reg{3, 6}, Aux: int64(ir.BinEq)},
		{Op: ir.OpBuiltin, Dst: 9, Args: []ir.Reg{7}, Aux: int64(ir.BPrint)},
		{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
	}}}
	p.AddFunc(main)
	p.Main = main
	if err := p.Verify(); err != nil {
		panic(err)
	}
	return p
}

func TestInlinedArrayLayouts(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		p := buildInlinedArrayProg(parallel)
		var out strings.Builder
		if _, err := vm.New(p, vm.Options{Out: &out}).Run(); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if out.String() != "16\ntrue\n" {
			t.Errorf("parallel=%v output %q", parallel, out.String())
		}
	}
}

func TestInteriorErrors(t *testing.T) {
	pt := &ir.Class{Name: "Pt", Methods: map[string]*ir.Func{}}
	pt.Fields = []*ir.Field{{Name: "x", Slot: 0, Owner: pt}}

	build := func(mk func(p *ir.Program, c *ir.Class) []*ir.Instr) *ir.Program {
		p := ir.NewProgram()
		c := p.AddClass(&ir.Class{Name: "Pt", Methods: map[string]*ir.Func{}})
		c.Fields = []*ir.Field{{Name: "x", Slot: 0, Owner: c}}
		main := &ir.Func{Name: "main", NumRegs: 8}
		main.Blocks = []*ir.Block{{ID: 0, Instrs: mk(p, c)}}
		p.AddFunc(main)
		p.Main = main
		if err := p.Verify(); err != nil {
			panic(err)
		}
		return p
	}

	cases := []struct {
		name string
		mk   func(p *ir.Program, c *ir.Class) []*ir.Instr
		frag string
	}{
		{
			"interior into plain array",
			func(p *ir.Program, c *ir.Class) []*ir.Instr {
				return []*ir.Instr{
					{Op: ir.OpConstInt, Dst: 0, Aux: 2},
					{Op: ir.OpNewArray, Dst: 1, Args: []ir.Reg{0}},
					{Op: ir.OpConstInt, Dst: 2, Aux: 0},
					{Op: ir.OpArrInterior, Dst: 3, Args: []ir.Reg{1, 2}},
					{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
				}
			},
			"interior reference into a plain array",
		},
		{
			"plain load from inlined array",
			func(p *ir.Program, c *ir.Class) []*ir.Instr {
				return []*ir.Instr{
					{Op: ir.OpConstInt, Dst: 0, Aux: 2},
					{Op: ir.OpNewArrayInl, Dst: 1, Args: []ir.Reg{0}, Class: c},
					{Op: ir.OpConstInt, Dst: 2, Aux: 0},
					{Op: ir.OpArrGet, Dst: 3, Args: []ir.Reg{1, 2}},
					{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
				}
			},
			"plain load from inlined array",
		},
		{
			"interior index out of range",
			func(p *ir.Program, c *ir.Class) []*ir.Instr {
				return []*ir.Instr{
					{Op: ir.OpConstInt, Dst: 0, Aux: 2},
					{Op: ir.OpNewArrayInl, Dst: 1, Args: []ir.Reg{0}, Class: c},
					{Op: ir.OpConstInt, Dst: 2, Aux: 5},
					{Op: ir.OpArrInterior, Dst: 3, Args: []ir.Reg{1, 2}},
					{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
				}
			},
			"out of range",
		},
		{
			"name-only access on interior",
			func(p *ir.Program, c *ir.Class) []*ir.Instr {
				nameOnly := &ir.Field{Name: "x", Slot: -1}
				return []*ir.Instr{
					{Op: ir.OpConstInt, Dst: 0, Aux: 2},
					{Op: ir.OpNewArrayInl, Dst: 1, Args: []ir.Reg{0}, Class: c},
					{Op: ir.OpConstInt, Dst: 2, Aux: 0},
					{Op: ir.OpArrInterior, Dst: 3, Args: []ir.Reg{1, 2}},
					{Op: ir.OpGetField, Dst: 4, Args: []ir.Reg{3}, Field: nameOnly},
					{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
				}
			},
			"unspecialized field access",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := build(tc.mk)
			_, err := vm.New(p, vm.Options{}).Run()
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

func TestStackWindowReuse(t *testing.T) {
	// Many stacked temporaries must cycle within the stack window rather
	// than consuming unbounded address space: their addresses repeat.
	p := ir.NewProgram()
	c := p.AddClass(&ir.Class{Name: "T", Methods: map[string]*ir.Func{}})
	c.Fields = []*ir.Field{{Name: "x", Slot: 0, Owner: c}}
	main := &ir.Func{Name: "main", NumRegs: 4}
	// Loop allocating 1000 stacked objects.
	main.Blocks = []*ir.Block{
		{ID: 0, Instrs: []*ir.Instr{
			{Op: ir.OpConstInt, Dst: 0, Aux: 0},
			{Op: ir.OpJump, Dst: ir.NoReg, Target: 1},
		}},
		{ID: 1, Instrs: []*ir.Instr{
			{Op: ir.OpConstInt, Dst: 1, Aux: 1000},
			{Op: ir.OpBin, Dst: 2, Args: []ir.Reg{0, 1}, Aux: int64(ir.BinLt)},
			{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{2}, Target: 2, Else: 3},
		}},
		{ID: 2, Instrs: []*ir.Instr{
			{Op: ir.OpNewObject, Dst: 3, Class: c, Aux: 1}, // stacked
			{Op: ir.OpConstInt, Dst: 1, Aux: 1},
			{Op: ir.OpBin, Dst: 0, Args: []ir.Reg{0, 1}, Aux: int64(ir.BinAdd)},
			{Op: ir.OpJump, Dst: ir.NoReg, Target: 1},
		}},
		{ID: 3, Instrs: []*ir.Instr{
			{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
		}},
	}
	p.AddFunc(main)
	p.Main = main
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	m := vm.New(p, vm.Options{})
	counters, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if counters.StackAllocated != 1000 {
		t.Errorf("StackAllocated = %d", counters.StackAllocated)
	}
	if counters.ObjectsAllocated != 0 {
		t.Errorf("heap objects = %d, want 0", counters.ObjectsAllocated)
	}
	if counters.BytesAllocated != 0 {
		t.Errorf("stacked allocations counted as heap bytes: %d", counters.BytesAllocated)
	}
}

// TestArrayLengthOutOfRange holds array lengths Go would refuse to
// allocate to a positioned runtime error: a plain array past the length
// bound, an inlined one whose length passes it (times the stride, the
// product overflows int64), and inlined ones within the length bound
// whose slots pass the slot bound, in both layouts.
func TestArrayLengthOutOfRange(t *testing.T) {
	for _, n := range []int64{math.MaxInt64, vm.MaxArrayLength + 1} {
		src := fmt.Sprintf("func main() {\n  var a = new [%d];\n  print(len(a));\n}", n)
		err := runErr(t, src)
		var re *vm.RuntimeError
		want := fmt.Sprintf("array length %d out of range", n)
		if !asRuntimeError(err, &re) || re.Msg != want {
			t.Fatalf("new [%d]: %v, want %q", n, err, want)
		}
		if re.Pos.Line != 2 {
			t.Errorf("new [%d]: error at %s, want line 2", n, re.Pos)
		}
	}

	const wide = 512 // slots per element: the slot bound binds first
	for _, tc := range []struct {
		n        int64
		stride   int
		parallel bool
	}{
		{1 << 62, 4, false},
		{vm.MaxArraySlots/wide + 1, wide, false},
		{vm.MaxArraySlots/wide + 1, wide, true},
	} {
		if tc.n <= vm.MaxArrayLength && tc.n*int64(tc.stride) <= vm.MaxArraySlots {
			t.Fatalf("%d x %d is within both bounds", tc.n, tc.stride) // never allocate it
		}
		p := ir.NewProgram()
		c := p.AddClass(&ir.Class{Name: "Pt", Methods: map[string]*ir.Func{}})
		for i := 0; i < tc.stride; i++ {
			c.Fields = append(c.Fields, &ir.Field{Name: fmt.Sprintf("f%d", i), Slot: i, Owner: c})
		}
		aux := int64(0)
		if tc.parallel {
			aux = 1
		}
		main := &ir.Func{Name: "main", NumRegs: 2}
		main.Blocks = []*ir.Block{{ID: 0, Instrs: []*ir.Instr{
			{Op: ir.OpConstInt, Dst: 0, Aux: tc.n},
			{Op: ir.OpNewArrayInl, Dst: 1, Args: []ir.Reg{0}, Class: c, Aux: aux},
			{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
		}}}
		p.AddFunc(main)
		p.Main = main
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		_, err := vm.New(p, vm.Options{}).Run()
		var re *vm.RuntimeError
		want := fmt.Sprintf("array length %d out of range", tc.n)
		if !asRuntimeError(err, &re) || re.Msg != want {
			t.Errorf("inlined array of %d x %d (parallel %v): %v, want %q", tc.n, tc.stride, tc.parallel, err, want)
		}
	}
}
