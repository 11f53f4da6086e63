// Package ir defines the intermediate representation the optimizer works
// on: a register-based control-flow-graph IR with an explicit uniform
// object model (every object access is a reference dereference, every
// method call is a dynamic dispatch until cloning devirtualizes it).
//
// The IR mirrors what the Concert compiler's analyses consume: a program is
// a set of classes with flat slot layouts plus a set of functions; each
// function is a list of basic blocks of three-address instructions over
// virtual registers. Instructions carry stable per-function IDs so the
// contour-based analyses can key facts by (contour, instruction).
package ir

import (
	"fmt"

	"objinline/internal/lang/source"
)

// Reg is a virtual register index within a function. NoReg means "none".
type Reg int

// NoReg marks an absent register operand or destination.
const NoReg Reg = -1

// Class is a class with a flattened slot layout: superclass fields first,
// then this class's own fields. Subclass layouts extend superclass layouts,
// so a *Field's Slot is valid for every subclass instance.
type Class struct {
	ID      int
	Name    string
	Super   *Class
	Fields  []*Field         // full layout; Fields[i].Slot == i
	Methods map[string]*Func // methods declared by this class (not inherited)

	// Origin points at the class this one was cloned from, nil for
	// source-level classes. Clone metadata is attached by the cloning
	// framework.
	Origin *Class
}

// Source returns the source-level class c was (transitively) cloned from,
// or c itself when c is one.
func (c *Class) Source() *Class {
	for c.Origin != nil {
		c = c.Origin
	}
	return c
}

// NumSlots returns the instance size in slots.
func (c *Class) NumSlots() int { return len(c.Fields) }

// FieldNamed returns the field with the given source name, or nil. For
// restructured classes the original field may have been removed; see
// package core for the slot maps that replace it.
func (c *Class) FieldNamed(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LookupMethod resolves a method name against the class chain, returning
// the overriding definition nearest to c, or nil.
func (c *Class) LookupMethod(name string) *Func {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.Methods[name]; ok {
			return m
		}
	}
	return nil
}

// IsSubclassOf reports whether c equals or descends from k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// Field is one instance-variable slot of a class layout.
type Field struct {
	Name  string
	Slot  int
	Owner *Class // class that declared the field

	// Synthetic marks slots introduced by the inlining transformation
	// (the flattened state of an inlined child object).
	Synthetic bool
}

func (f *Field) String() string {
	switch {
	case f == nil:
		return "<nil-field>"
	case f.Owner == nil && f.Slot < 0:
		return "." + f.Name // name-only reference
	case f.Owner == nil:
		return fmt.Sprintf(".%s@+%d", f.Name, f.Slot) // interior-relative
	default:
		return fmt.Sprintf("%s.%s@%d", f.Owner.Name, f.Name, f.Slot)
	}
}

// Func is a function or method in three-address CFG form.
//
// Register conventions: for a method, register 0 is self and registers
// 1..NumParams hold the parameters; for a top-level function registers
// 0..NumParams-1 hold the parameters.
type Func struct {
	ID        int
	Name      string
	Class     *Class // nil for a top-level function
	NumParams int    // not counting self
	NumRegs   int
	Blocks    []*Block

	// Origin points at the function this one was cloned from, nil for
	// source-level functions.
	Origin *Func

	// NumInstrs is the number of instructions after Renumber.
	NumInstrs int
}

// FullName renders Class::Name for methods and Name for functions.
func (f *Func) FullName() string {
	if f.Class != nil {
		return f.Class.Name + "::" + f.Name
	}
	return f.Name
}

// ParamReg returns the register holding parameter i (0-based).
func (f *Func) ParamReg(i int) Reg {
	if f.Class != nil {
		return Reg(i + 1)
	}
	return Reg(i)
}

// Block is a basic block. The last instruction must be a terminator
// (Jump, Branch, Return, or Trap); Verify checks this.
type Block struct {
	ID     int
	Instrs []*Instr
}

// Op enumerates IR operations.
type Op int

// IR operations.
const (
	OpConstInt   Op = iota // Dst = Aux
	OpConstFloat           // Dst = F
	OpConstStr             // Dst = S
	OpConstBool            // Dst = (Aux != 0)
	OpConstNil             // Dst = nil
	OpMove                 // Dst = Args[0]
	OpBin                  // Dst = Args[0] <BinOp(Aux)> Args[1]
	OpUn                   // Dst = <UnOp(Aux)> Args[0]
	OpNewObject            // Dst = new Class (constructor call is separate)
	OpNewArray             // Dst = new array of length Args[0]
	OpGetField             // Dst = Args[0].Field
	OpSetField             // Args[0].Field = Args[1]
	OpArrGet               // Dst = Args[0][Args[1]]
	OpArrSet               // Args[0][Args[1]] = Args[2]
	OpCall                 // Dst = Callee(Args...)          (top-level)
	OpCallMethod           // Dst = Args[0].Method(Args[1:]) (dynamic)
	OpCallStatic           // Dst = Callee(Args[0]=self, Args[1:]) (devirtualized)
	OpGetGlobal            // Dst = globals[Global]
	OpSetGlobal            // globals[Global] = Args[0]
	OpBuiltin              // Dst = builtin(Aux)(Args...)
	OpJump                 // goto Target
	OpBranch               // if Args[0] goto Target else goto Else
	OpReturn               // return Args[0] (or nil if len(Args)==0)
	OpTrap                 // runtime error with message S

	// Ops introduced by the inlining transformation (package core).
	OpNewArrayInl // Dst = inlined array of Class elements; Args[0]=len; Aux=1 selects the parallel layout
	OpArrInterior // Dst = interior reference to Args[0][Args[1]]'s inlined state
)

var opNames = [...]string{
	"const.int", "const.float", "const.str", "const.bool", "const.nil",
	"move", "bin", "un", "new", "newarray", "getfield", "setfield",
	"arrget", "arrset", "call", "callmethod", "callstatic",
	"getglobal", "setglobal", "builtin", "jump", "branch", "return", "trap",
	"newarray.inl", "arrinterior",
}

func (o Op) String() string { return opNames[o] }

// BinOp enumerates IR binary operators (short-circuit operators are
// lowered to control flow, so they do not appear here).
type BinOp int

// IR binary operators.
const (
	BinAdd BinOp = iota
	BinSub
	BinMul
	BinDiv
	BinMod
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

var binNames = [...]string{"+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="}

func (b BinOp) String() string { return binNames[b] }

// UnOp enumerates IR unary operators.
type UnOp int

// IR unary operators.
const (
	UnNeg UnOp = iota
	UnNot
)

// Builtin enumerates intrinsic functions.
type Builtin int

// Builtins callable from Mini-ICC source.
const (
	BPrint   Builtin = iota // print(args...): space-separated, newline
	BSqrt                   // sqrt(x) float
	BFloor                  // floor(x) float
	BAbs                    // abs(x) same numeric kind
	BMin                    // min(x, y)
	BMax                    // max(x, y)
	BLen                    // len(array or string) int
	BIntOf                  // intof(x) truncate to int
	BFloatOf                // floatof(x) widen to float
	BAssert                 // assert(cond) traps when false
	BStrCat                 // strcat(a, b) string concatenation
	BXor                    // bxor(a, b) bitwise xor on ints
)

var builtinNames = [...]string{
	"print", "sqrt", "floor", "abs", "min", "max", "len", "intof",
	"floatof", "assert", "strcat", "bxor",
}

func (b Builtin) String() string { return builtinNames[b] }

// BuiltinByName maps a source identifier to a builtin.
func BuiltinByName(name string) (Builtin, bool) {
	for i, n := range builtinNames {
		if n == name {
			return Builtin(i), true
		}
	}
	return 0, false
}

// BuiltinArity returns the (min, max) argument counts for b; max<0 means
// variadic.
func BuiltinArity(b Builtin) (int, int) {
	switch b {
	case BPrint:
		return 0, -1
	case BMin, BMax, BStrCat, BXor:
		return 2, 2
	default:
		return 1, 1
	}
}

// Instr is one IR instruction. A single struct (rather than one type per
// op) keeps cloning and rewriting simple.
type Instr struct {
	ID   int // stable per-function id, assigned by Renumber
	Op   Op
	Dst  Reg
	Args []Reg

	Class  *Class  // OpNewObject
	Field  *Field  // OpGetField/OpSetField
	Callee *Func   // OpCall/OpCallStatic
	Method string  // OpCallMethod
	Global int     // OpGetGlobal/OpSetGlobal
	Aux    int64   // const int / bool, BinOp, UnOp, Builtin
	F      float64 // OpConstFloat
	S      string  // OpConstStr, OpTrap message
	B      bool

	Target int // OpJump/OpBranch: block id taken when true
	Else   int // OpBranch: block id when false

	Pos source.Pos

	// Origin is the source-program instruction this one was (transitively)
	// cloned from, recorded by Clone for incremental recompilation: when a
	// payload-only edit updates the source instructions in place, the
	// optimized output is refreshed by re-copying constant payloads from
	// each instruction's origin (Program.RefreshConstPayloads) instead of
	// re-running the optimizer. Nil for instructions the optimizer
	// synthesized from whole cloth. Never printed, verified, or compared.
	Origin *Instr
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpJump, OpBranch, OpReturn, OpTrap:
		return true
	}
	return false
}

// IsCall reports whether the instruction transfers control to another
// function (used by the valuability analysis).
func (in *Instr) IsCall() bool {
	switch in.Op {
	case OpCall, OpCallMethod, OpCallStatic:
		return true
	}
	return false
}

// Clone returns a deep copy of the instruction (Args are copied; payload
// pointers are shared until a rewrite retargets them). The clone's Origin
// chain collapses to the root instruction, so clones of clones still point
// at the original.
func (in *Instr) Clone() *Instr {
	cp := *in
	cp.Args = append([]Reg(nil), in.Args...)
	if cp.Origin == nil {
		cp.Origin = in
	}
	return &cp
}

// RefreshConstPayloads re-copies the constant payload fields (Aux of
// OpConstInt/OpConstBool, F, S, B) from each instruction's Origin, for
// instructions whose origin still has the same opcode. It is the
// incremental patch tier's output fix-up: after a payload-only source
// edit updates the analyzed program's instructions in place, the
// already-optimized output program — whose shape, analysis, and decisions
// provably cannot depend on those values — is brought current by
// forwarding the new constants through the clone provenance. Instructions
// the optimizer synthesized (nil Origin) or retyped (opcode mismatch,
// e.g. OpNewArray→OpNewArrayInl, whose Aux became a layout flag) keep
// their payloads.
func (p *Program) RefreshConstPayloads() {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				o := in.Origin
				if o == nil || o.Op != in.Op {
					continue
				}
				switch in.Op {
				case OpConstInt, OpConstBool:
					in.Aux = o.Aux
				case OpConstFloat:
					in.F = o.F
				case OpConstStr, OpTrap:
					in.S = o.S
				}
				in.B = o.B
			}
		}
	}
}

// Program is a complete IR program.
type Program struct {
	Classes []*Class
	Funcs   []*Func
	Globals []string
	Main    *Func

	nextClassID int
	nextFuncID  int
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// AddClass registers a class and assigns its ID.
func (p *Program) AddClass(c *Class) *Class {
	c.ID = p.nextClassID
	p.nextClassID++
	p.Classes = append(p.Classes, c)
	return c
}

// AddFunc registers a function and assigns its ID.
func (p *Program) AddFunc(f *Func) *Func {
	f.ID = p.nextFuncID
	p.nextFuncID++
	p.Funcs = append(p.Funcs, f)
	return f
}

// ClassNamed finds a class by name, or nil.
func (p *Program) ClassNamed(name string) *Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// FuncNamed finds a top-level function by name, or nil.
func (p *Program) FuncNamed(name string) *Func {
	for _, f := range p.Funcs {
		if f.Class == nil && f.Name == name {
			return f
		}
	}
	return nil
}

// Renumber assigns stable instruction IDs for f and recomputes NumInstrs.
func (f *Func) Renumber() {
	id := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ID = id
			id++
		}
	}
	f.NumInstrs = id
}

// Instrs calls fn for every instruction in f.
func (f *Func) Instrs(fn func(*Block, *Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(b, in)
		}
	}
}

// CodeSize returns the number of instructions in the function.
func (f *Func) CodeSize() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// CodeSize returns the total instruction count of the program, the unit of
// the Fig. 15 code-size measurements.
func (p *Program) CodeSize() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.CodeSize()
	}
	return n
}
