package ir_test

import (
	"strings"
	"testing"

	"objinline/internal/ir"
)

// tinyProgram builds a minimal valid program: main returns nil.
func tinyProgram() (*ir.Program, *ir.Func) {
	p := ir.NewProgram()
	main := &ir.Func{Name: "main", NumRegs: 1}
	main.Blocks = []*ir.Block{{ID: 0, Instrs: []*ir.Instr{
		{Op: ir.OpConstNil, Dst: 0},
		{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
	}}}
	p.AddFunc(main)
	p.Main = main
	return p, main
}

func TestVerifyAcceptsTiny(t *testing.T) {
	p, _ := tinyProgram()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	p, main := tinyProgram()
	main.Blocks[0].Instrs = main.Blocks[0].Instrs[:1] // drop the return
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsMidBlockTerminator(t *testing.T) {
	p, main := tinyProgram()
	main.Blocks[0].Instrs = []*ir.Instr{
		{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{0}},
		{Op: ir.OpConstNil, Dst: 0},
	}
	if err := p.Verify(); err == nil {
		t.Fatal("mid-block terminator accepted")
	}
}

func TestVerifyRejectsBadRegister(t *testing.T) {
	p, main := tinyProgram()
	main.Blocks[0].Instrs[0].Dst = 5 // out of range (NumRegs == 1)
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "register") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsBadJumpTarget(t *testing.T) {
	for _, bad := range []*ir.Instr{
		{Op: ir.OpJump, Dst: ir.NoReg, Target: 7},
		{Op: ir.OpJump, Dst: ir.NoReg, Target: -1},
		{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{0}, Target: 0, Else: 1},
	} {
		p, main := tinyProgram()
		main.Blocks[0].Instrs[1] = bad
		if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "unknown block") {
			t.Fatalf("%s: err = %v", bad, err)
		}
	}
}

func TestVerifyRejectsForeignCallee(t *testing.T) {
	p, main := tinyProgram()
	foreign := &ir.Func{Name: "foreign"}
	main.Blocks[0].Instrs[0] = &ir.Instr{Op: ir.OpCall, Dst: 0, Callee: foreign}
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRequiresMain(t *testing.T) {
	p, _ := tinyProgram()
	p.Main = nil
	if err := p.Verify(); err == nil || !strings.Contains(err.Error(), "no main") {
		t.Fatalf("err = %v", err)
	}
}

func TestRenumberAssignsStableIDs(t *testing.T) {
	_, main := tinyProgram()
	main.Renumber()
	if main.NumInstrs != 2 {
		t.Fatalf("NumInstrs = %d", main.NumInstrs)
	}
	ids := []int{}
	main.Instrs(func(_ *ir.Block, in *ir.Instr) { ids = append(ids, in.ID) })
	if ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v", ids)
	}
}

func TestClassHierarchyHelpers(t *testing.T) {
	a := &ir.Class{Name: "A", Methods: map[string]*ir.Func{}}
	a.Fields = []*ir.Field{{Name: "x", Slot: 0, Owner: a}}
	b := &ir.Class{Name: "B", Super: a, Methods: map[string]*ir.Func{}}
	b.Fields = append(append([]*ir.Field{}, a.Fields...), &ir.Field{Name: "y", Slot: 1, Owner: b})

	if !b.IsSubclassOf(a) || !b.IsSubclassOf(b) || a.IsSubclassOf(b) {
		t.Error("IsSubclassOf broken")
	}
	if b.FieldNamed("x") != a.Fields[0] || b.FieldNamed("y").Slot != 1 || b.FieldNamed("z") != nil {
		t.Error("FieldNamed broken")
	}

	ma := &ir.Func{Name: "m", Class: a}
	a.Methods["m"] = ma
	if b.LookupMethod("m") != ma {
		t.Error("inherited lookup broken")
	}
	mb := &ir.Func{Name: "m", Class: b}
	b.Methods["m"] = mb
	if b.LookupMethod("m") != mb || a.LookupMethod("m") != ma {
		t.Error("override lookup broken")
	}
	if b.LookupMethod("nope") != nil {
		t.Error("missing method lookup broken")
	}
}

func TestRegisterConventions(t *testing.T) {
	c := &ir.Class{Name: "C", Methods: map[string]*ir.Func{}}
	m := &ir.Func{Name: "m", Class: c, NumParams: 2}
	if m.SelfReg() != 0 || m.ParamReg(0) != 1 || m.ParamReg(1) != 2 {
		t.Error("method register conventions broken")
	}
	f := &ir.Func{Name: "f", NumParams: 2}
	if f.SelfReg() != ir.NoReg || f.ParamReg(0) != 0 || f.ParamReg(1) != 1 {
		t.Error("function register conventions broken")
	}
	if m.FullName() != "C::m" || f.FullName() != "f" {
		t.Error("FullName broken")
	}
}

func TestInstrClone(t *testing.T) {
	in := &ir.Instr{Op: ir.OpBin, Dst: 3, Args: []ir.Reg{1, 2}, Aux: int64(ir.BinAdd)}
	cp := in.Clone()
	cp.Args[0] = 9
	if in.Args[0] != 1 {
		t.Error("Clone shares Args")
	}
}

func TestBuiltinLookup(t *testing.T) {
	if b, ok := ir.BuiltinByName("sqrt"); !ok || b != ir.BSqrt {
		t.Error("sqrt lookup")
	}
	if _, ok := ir.BuiltinByName("nosuch"); ok {
		t.Error("bogus builtin resolved")
	}
	if lo, hi := ir.BuiltinArity(ir.BPrint); lo != 0 || hi != -1 {
		t.Errorf("print arity %d %d", lo, hi)
	}
	if lo, hi := ir.BuiltinArity(ir.BMin); lo != 2 || hi != 2 {
		t.Errorf("min arity %d %d", lo, hi)
	}
	if lo, hi := ir.BuiltinArity(ir.BSqrt); lo != 1 || hi != 1 {
		t.Errorf("sqrt arity %d %d", lo, hi)
	}
}

func TestPrinting(t *testing.T) {
	p, main := tinyProgram()
	c := p.AddClass(&ir.Class{Name: "K", Methods: map[string]*ir.Func{}})
	c.Fields = []*ir.Field{{Name: "f", Slot: 0, Owner: c}}
	s := p.String()
	for _, frag := range []string{"class K", "f@0", "func main", "const nil", "return r0"} {
		if !strings.Contains(s, frag) {
			t.Errorf("program print missing %q:\n%s", frag, s)
		}
	}
	main.Renumber()
	got := main.Blocks[0].Instrs[0].String()
	if got != "r0 = const nil" {
		t.Errorf("instr print = %q", got)
	}
}

func TestCodeSize(t *testing.T) {
	p, main := tinyProgram()
	if main.CodeSize() != 2 || p.CodeSize() != 2 {
		t.Errorf("code size %d/%d", main.CodeSize(), p.CodeSize())
	}
}

func TestFieldStringForms(t *testing.T) {
	c := &ir.Class{Name: "C"}
	cases := []struct {
		f    *ir.Field
		want string
	}{
		{nil, "<nil-field>"},
		{&ir.Field{Name: "x", Slot: -1}, ".x"},
		{&ir.Field{Name: "x", Slot: 2}, ".x@+2"},
		{&ir.Field{Name: "x", Slot: 1, Owner: c}, "C.x@1"},
	}
	for _, tc := range cases {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Field.String() = %q, want %q", got, tc.want)
		}
	}
}
