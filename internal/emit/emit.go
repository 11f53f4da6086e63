// Package emit is the native execution tier: it walks the optimized IR
// and emits one self-contained, compilable Go package per program, then
// (native.go) builds and runs it on real hardware.
//
// The emission mapping realizes the paper's claim physically:
//
//   - every class — including the optimizer's restructured versions —
//     becomes a Go struct with one flat member per slot, so synthetic
//     slots (the flattened state of inlined children) are true inline
//     allocation: no header words, no indirection, one contiguous block;
//   - inlined arrays become flat []value buffers (or parallel column
//     vectors), matching the VM's object-order and parallel layouts;
//   - dynamic dispatch becomes a generated tag-switch function per
//     (method name, arity): a Go type switch over the concrete receiver
//     structs whose arms are direct calls to the resolved target, i.e.
//     the dispatch table is compiled into branchable code;
//   - devirtualized calls (OpCallStatic) become plain Go calls.
//
// The emitted program replicates the VM's observable semantics exactly —
// print rendering, float formatting, trap messages, identity semantics —
// so differential tests can require byte-identical stdout and identical
// runtime-error text across engines. The only modeled behavior with no
// native equivalent is the VM's step limit (a runaway program is bounded
// by the harness deadline instead) and its synthetic cycle/cache-miss
// accounting (the point of the native tier is to measure real wall-clock
// and allocator behavior; see the calibration figure in internal/bench).
//
// Emission is deterministic: identical IR produces byte-identical Go
// source, so the solver differential guarantees (sweep ≡ worklist ≡
// parallel) carry over to the native tier by construction.
package emit

import (
	"bytes"
	"fmt"
	"go/format"
	"math"
	"sort"
	"strconv"
	"strings"

	"objinline/internal/ir"
	"objinline/internal/lower"
)

// dispatchKey identifies one generated tag-switch dispatch function.
type dispatchKey struct {
	method string
	arity  int // argument count not counting the receiver
}

type emitter struct {
	prog *ir.Program
	buf  bytes.Buffer

	classes  []*ir.Class
	classIdx map[*ir.Class]int

	funcName map[*ir.Func]string

	dispatch     map[dispatchKey]string
	dispatchKeys []dispatchKey
}

// Emit renders prog as a self-contained Go main package. The result is
// gofmt-formatted and deterministic: the same IR yields the same bytes.
func Emit(prog *ir.Program) ([]byte, error) {
	if prog.Main == nil {
		return nil, fmt.Errorf("emit: program has no main")
	}
	e := &emitter{
		prog:     prog,
		classIdx: make(map[*ir.Class]int),
		funcName: make(map[*ir.Func]string),
		dispatch: make(map[dispatchKey]string),
	}
	e.indexClasses()
	e.indexFuncs()
	e.indexDispatch()

	e.header()
	e.tables()
	for i, c := range e.classes {
		e.classDecl(i, c)
	}
	for _, k := range e.dispatchKeys {
		e.dispatchFunc(k)
	}
	for _, f := range prog.Funcs {
		if err := e.function(f); err != nil {
			return nil, err
		}
	}
	e.mainScaffold()

	src, err := format.Source(e.buf.Bytes())
	if err != nil {
		// A formatting failure means the generator produced invalid Go —
		// surface the raw source for diagnosis.
		return nil, fmt.Errorf("emit: generated source does not parse: %v\n%s", err, e.buf.Bytes())
	}
	return src, nil
}

// indexClasses assigns a dense id to every class reachable from the
// program in deterministic order: declared classes first, then anything
// discovered through function metadata (defensive; the optimizer
// registers its class versions, so this normally adds nothing).
func (e *emitter) indexClasses() {
	var add func(c *ir.Class)
	add = func(c *ir.Class) {
		if c == nil {
			return
		}
		if _, ok := e.classIdx[c]; ok {
			return
		}
		e.classIdx[c] = len(e.classes)
		e.classes = append(e.classes, c)
		add(c.Super)
	}
	for _, c := range e.prog.Classes {
		add(c)
	}
	for _, f := range e.prog.Funcs {
		add(f.Class)
		f.Instrs(func(_ *ir.Block, in *ir.Instr) {
			add(in.Class)
			if in.Field != nil {
				add(in.Field.Owner)
			}
		})
	}
}

func (e *emitter) indexFuncs() {
	for _, f := range e.prog.Funcs {
		e.funcName[f] = fmt.Sprintf("fn%d_%s", f.ID, san(f.FullName()))
	}
}

func (e *emitter) indexDispatch() {
	for _, f := range e.prog.Funcs {
		f.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.Op != ir.OpCallMethod {
				return
			}
			k := dispatchKey{method: in.Method, arity: len(in.Args) - 1}
			if _, ok := e.dispatch[k]; !ok {
				e.dispatch[k] = ""
				e.dispatchKeys = append(e.dispatchKeys, k)
			}
		})
	}
	sort.Slice(e.dispatchKeys, func(i, j int) bool {
		a, b := e.dispatchKeys[i], e.dispatchKeys[j]
		if a.method != b.method {
			return a.method < b.method
		}
		return a.arity < b.arity
	})
	for i, k := range e.dispatchKeys {
		e.dispatch[k] = fmt.Sprintf("dyn%d_%s_%d", i, san(k.method), k.arity)
	}
}

func (e *emitter) className(c *ir.Class) string {
	return fmt.Sprintf("c%d_%s", e.classIdx[c], san(c.Name))
}

// fieldMember names the struct member for slot i of class c.
func fieldMember(f *ir.Field) string {
	return fmt.Sprintf("s%d_%s", f.Slot, san(f.Name))
}

func (e *emitter) p(format string, args ...any) {
	fmt.Fprintf(&e.buf, format, args...)
	e.buf.WriteByte('\n')
}

func (e *emitter) header() {
	e.p("// Code generated from optimized IR by objinline (internal/emit). DO NOT EDIT.")
	e.p("//")
	e.p("// Classes are structs with one flat member per slot (synthetic slots are")
	e.p("// the inlined state of child objects), dynamic dispatch is a type switch")
	e.p("// per (method, arity), and observable behavior matches the reference VM.")
	e.p("package main")
	e.p("")
	e.p("import (")
	for _, imp := range []string{"bufio", "fmt", "math", "os", "runtime", "strconv", "strings", "time"} {
		e.p("\t%q", imp)
	}
	e.p(")")
	e.p("")
	e.buf.WriteString(runtimeSrc)
	e.p("")
}

// tables emits the class metadata the runtime helpers consult: the super
// table for subclass tests and the name tables for errors and printing.
func (e *emitter) tables() {
	e.p("// Class metadata, indexed by dense class id.")
	e.p("var supers = []int32{")
	for _, c := range e.classes {
		sup := int32(-1)
		if c.Super != nil {
			sup = int32(e.classIdx[c.Super])
		}
		e.p("\t%d, // %s", sup, c.Name)
	}
	e.p("}")
	e.p("")
	e.p("var classNames = []string{")
	for _, c := range e.classes {
		e.p("\t%s,", strconv.Quote(c.Name))
	}
	e.p("}")
	e.p("")
	e.p("// printNames are the source-level class names print renders (class")
	e.p("// versions must be observationally identical to their origin).")
	e.p("var printNames = []string{")
	for _, c := range e.classes {
		e.p("\t%s,", strconv.Quote(c.Source().Name))
	}
	e.p("}")
	e.p("")
}

func (e *emitter) classDecl(idx int, c *ir.Class) {
	tn := e.className(c)
	e.p("type %s struct {", tn)
	if len(c.Fields) == 0 {
		// A zero-size struct would let Go place distinct instances at the
		// same address, breaking reference identity; pad to one byte.
		e.p("\t_ byte")
	}
	for _, f := range c.Fields {
		e.p("\t%s value", fieldMember(f))
	}
	e.p("}")
	e.p("")
	e.p("func (o *%s) cid() int32     { return %d }", tn, idx)
	e.p("func (o *%s) cname() string  { return classNames[%d] }", tn, idx)
	e.p("func (o *%s) pname() string  { return printNames[%d] }", tn, idx)

	e.p("func (o *%s) get(slot int) value {", tn)
	if len(c.Fields) > 0 {
		e.p("\tswitch slot {")
		for _, f := range c.Fields {
			e.p("\tcase %d:", f.Slot)
			e.p("\t\treturn o.%s", fieldMember(f))
		}
		e.p("\t}")
	}
	e.p("\tpanic(\"bad slot\")")
	e.p("}")

	e.p("func (o *%s) set(slot int, v value) {", tn)
	e.p("\tswitch slot {")
	for _, f := range c.Fields {
		e.p("\tcase %d:", f.Slot)
		e.p("\t\to.%s = v", fieldMember(f))
	}
	e.p("\tdefault:")
	e.p("\t\tpanic(\"bad slot\")")
	e.p("\t}")
	e.p("}")

	// Name lookup mirrors the VM's slotByName map: last declaration wins
	// for a repeated name, cases emitted in first-encounter order.
	names := []string{}
	slotByName := map[string]int{}
	for _, f := range c.Fields {
		if _, ok := slotByName[f.Name]; !ok {
			names = append(names, f.Name)
		}
		slotByName[f.Name] = f.Slot
	}
	e.p("func (o *%s) slotOf(name string) int {", tn)
	if len(names) > 0 {
		e.p("\tswitch name {")
		for _, n := range names {
			e.p("\tcase %s:", strconv.Quote(n))
			e.p("\t\treturn %d", slotByName[n])
		}
		e.p("\t}")
	}
	e.p("\treturn -1")
	e.p("}")
	e.p("")
}

// dispatchFunc emits the tag-switch dispatcher for one (method, arity):
// a type switch over every concrete receiver class, with each arm either
// a direct call to the statically resolved override or the exact arity
// trap the VM raises; lookup failure traps in the default arm. The trap
// order (lookup before arity) matches the interpreter.
func (e *emitter) dispatchFunc(k dispatchKey) {
	name := e.dispatch[k]
	params := make([]string, 0, k.arity+2)
	params = append(params, "pos string", "r0 value")
	args := []string{"r0"}
	for i := 1; i <= k.arity; i++ {
		params = append(params, fmt.Sprintf("a%d value", i))
		args = append(args, fmt.Sprintf("a%d", i))
	}
	e.p("func %s(%s) value {", name, strings.Join(params, ", "))
	e.p("\tif r0.k != kObj {")
	e.p("\t\tpanic(rte(pos, \"method %s called on \"+kindNames[r0.k]+\" value\"))", k.method)
	e.p("\t}")
	e.p("\tswitch r0.o.(type) {")
	for _, c := range e.classes {
		target := c.LookupMethod(k.method)
		if target == nil {
			continue
		}
		e.p("\tcase *%s:", e.className(c))
		if target.NumParams != k.arity {
			e.p("\t\tpanic(rte(pos, %s))", strconv.Quote(fmt.Sprintf(
				"%s takes %d arguments, got %d", target.FullName(), target.NumParams, k.arity)))
			continue
		}
		call := e.funcName[target] + "(" + strings.Join(args, ", ") + ")"
		e.p("\t\treturn %s", call)
	}
	e.p("\tdefault:")
	e.p("\t\tpanic(rte(pos, \"class \"+r0.o.cname()+\" has no method %s\"))", k.method)
	e.p("\t}")
	e.p("}")
	e.p("")
}

// paramCount returns the Go parameter count of f's emitted signature.
func paramCount(f *ir.Func) int {
	if f.Class != nil {
		return f.NumParams + 1
	}
	return f.NumParams
}

func (e *emitter) function(f *ir.Func) error {
	nparams := paramCount(f)

	// Reachability from the entry block: unreachable blocks are dropped
	// (emitting them would trip go vet's unreachable-code analyzer), and
	// only jump targets get labels (unused labels are compile errors).
	reach := map[int]bool{}
	targets := map[int]bool{}
	var walk func(id int)
	walk = func(id int) {
		if id < 0 || id >= len(f.Blocks) || reach[id] {
			return
		}
		reach[id] = true
		b := f.Blocks[id]
		if len(b.Instrs) == 0 {
			return
		}
		last := b.Instrs[len(b.Instrs)-1]
		switch last.Op {
		case ir.OpJump:
			targets[last.Target] = true
			walk(last.Target)
		case ir.OpBranch:
			targets[last.Target] = true
			targets[last.Else] = true
			walk(last.Target)
			walk(last.Else)
		}
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("emit: function %s has no blocks", f.FullName())
	}
	walk(0)

	// Registers beyond the parameters are locals; declare the ones the
	// reachable body touches up front (Go forbids goto over declarations)
	// with a blank use (assignment alone does not count as use).
	used := map[ir.Reg]bool{}
	note := func(r ir.Reg) {
		if int(r) >= nparams && r != ir.NoReg {
			used[r] = true
		}
	}
	for id := range f.Blocks {
		if !reach[id] {
			continue
		}
		for _, in := range f.Blocks[id].Instrs {
			note(in.Dst)
			for _, a := range in.Args {
				note(a)
			}
		}
	}
	var locals []ir.Reg
	for r := range used {
		locals = append(locals, r)
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })

	params := make([]string, nparams)
	for i := range params {
		params[i] = fmt.Sprintf("r%d value", i)
	}
	e.p("func %s(%s) value {", e.funcName[f], strings.Join(params, ", "))
	if len(locals) > 0 {
		decls := make([]string, len(locals))
		blanks := make([]string, len(locals))
		for i, r := range locals {
			decls[i] = fmt.Sprintf("r%d", r)
			blanks[i] = "_"
		}
		e.p("\tvar %s value", strings.Join(decls, ", "))
		e.p("\t%s = %s", strings.Join(blanks, ", "), strings.Join(decls, ", "))
	}

	for id := range f.Blocks {
		if !reach[id] {
			continue
		}
		b := f.Blocks[id]
		if targets[id] {
			e.p("b%d:", id)
		}
		if len(b.Instrs) == 0 || !b.Instrs[len(b.Instrs)-1].IsTerminator() {
			return fmt.Errorf("emit: block b%d in %s does not end in a terminator", id, f.FullName())
		}
		for _, in := range b.Instrs {
			if err := e.instr(f, in); err != nil {
				return err
			}
		}
	}
	e.p("}")
	e.p("")
	return nil
}

// posLit renders an instruction's source position as the string literal
// the runtime error constructor expects ("" for an unknown position).
func posLit(in *ir.Instr) string {
	if !in.Pos.IsValid() {
		return `""`
	}
	return strconv.Quote(in.Pos.String())
}

// binOpConst maps an ir.BinOp to the preamble's operator constant.
var binOpConst = [...]string{
	ir.BinAdd: "opAdd", ir.BinSub: "opSub", ir.BinMul: "opMul",
	ir.BinDiv: "opDiv", ir.BinMod: "opMod", ir.BinEq: "opEq",
	ir.BinNe: "opNe", ir.BinLt: "opLt", ir.BinLe: "opLe",
	ir.BinGt: "opGt", ir.BinGe: "opGe",
}

func (e *emitter) instr(f *ir.Func, in *ir.Instr) error {
	r := func(i int) string { return fmt.Sprintf("r%d", in.Args[i]) }
	dst := fmt.Sprintf("r%d", in.Dst)
	switch in.Op {
	case ir.OpConstInt:
		e.p("\t%s = ival(%d)", dst, in.Aux)
	case ir.OpConstFloat:
		e.p("\t%s = fval(%s)", dst, floatLit(in.F))
	case ir.OpConstStr:
		e.p("\t%s = sval(%s)", dst, strconv.Quote(in.S))
	case ir.OpConstBool:
		e.p("\t%s = bval(%t)", dst, in.Aux != 0)
	case ir.OpConstNil:
		e.p("\t%s = value{}", dst)
	case ir.OpMove:
		if in.Dst != in.Args[0] {
			e.p("\t%s = %s", dst, r(0))
		}
	case ir.OpBin:
		e.p("\t%s = arith(%s, %s, %s, %s)", dst, binOpConst[ir.BinOp(in.Aux)], r(0), r(1), posLit(in))
	case ir.OpUn:
		if ir.UnOp(in.Aux) == ir.UnNot {
			e.p("\t%s = bval(!truthy(%s))", dst, r(0))
		} else {
			e.p("\t%s = uneg(%s, %s)", dst, r(0), posLit(in))
		}
	case ir.OpNewObject:
		e.p("\t%s = oval(&%s{})", dst, e.className(in.Class))
	case ir.OpNewArray:
		e.p("\t%s = newarr(%s, %s)", dst, r(0), posLit(in))
	case ir.OpNewArrayInl:
		e.p("\t%s = newinl(%s, %d, %t, %s)", dst, r(0), in.Class.NumSlots(), in.Aux == 1, posLit(in))
	case ir.OpGetField:
		slot, owner := e.fieldRef(in.Field)
		e.p("\t%s = getfield(%s, %d, %d, %s, %s)", dst, r(0), slot, owner, strconv.Quote(in.Field.Name), posLit(in))
	case ir.OpSetField:
		slot, owner := e.fieldRef(in.Field)
		e.p("\tsetfield(%s, %s, %d, %d, %s, %s)", r(0), r(1), slot, owner, strconv.Quote(in.Field.Name), posLit(in))
	case ir.OpArrGet:
		e.p("\t%s = arrget(%s, %s, %s)", dst, r(0), r(1), posLit(in))
	case ir.OpArrSet:
		e.p("\tarrset(%s, %s, %s, %s)", r(0), r(1), r(2), posLit(in))
	case ir.OpArrInterior:
		e.p("\t%s = arrinterior(%s, %s, %s)", dst, r(0), r(1), posLit(in))
	case ir.OpCall, ir.OpCallStatic:
		callee := in.Callee
		if callee == nil {
			return fmt.Errorf("emit: %s with nil callee in %s", in.Op, f.FullName())
		}
		n := paramCount(callee)
		args := make([]string, n)
		for i := 0; i < n; i++ {
			if i < len(in.Args) {
				args[i] = r(i)
			} else {
				args[i] = "value{}" // the VM leaves missing params nil
			}
		}
		e.p("\t%s = %s(%s)", dst, e.funcName[callee], strings.Join(args, ", "))
	case ir.OpCallMethod:
		k := dispatchKey{method: in.Method, arity: len(in.Args) - 1}
		args := make([]string, 0, len(in.Args)+1)
		args = append(args, posLit(in))
		for i := range in.Args {
			args = append(args, r(i))
		}
		e.p("\t%s = %s(%s)", dst, e.dispatch[k], strings.Join(args, ", "))
	case ir.OpGetGlobal:
		e.p("\t%s = globals[%d]", dst, in.Global)
	case ir.OpSetGlobal:
		e.p("\tglobals[%d] = %s", in.Global, r(0))
	case ir.OpBuiltin:
		e.builtin(in, dst, r)
	case ir.OpJump:
		e.p("\tgoto b%d", in.Target)
	case ir.OpBranch:
		e.p("\tif truthy(%s) {", r(0))
		e.p("\t\tgoto b%d", in.Target)
		e.p("\t}")
		e.p("\tgoto b%d", in.Else)
	case ir.OpReturn:
		if len(in.Args) > 0 {
			e.p("\treturn %s", r(0))
		} else {
			e.p("\treturn value{}")
		}
	case ir.OpTrap:
		e.p("\tpanic(rte(%s, %s))", posLit(in), strconv.Quote(in.S))
	default:
		return fmt.Errorf("emit: unknown op %v in %s", in.Op, f.FullName())
	}
	return nil
}

// fieldRef encodes a field reference the way the runtime helpers expect:
// slot < 0 or owner < 0 forces the dynamic by-name path, exactly like the
// VM's resolveSlot fallback for unbound or stale references.
func (e *emitter) fieldRef(f *ir.Field) (slot, owner int) {
	slot, owner = f.Slot, -1
	if f.Owner != nil {
		owner = e.classIdx[f.Owner]
	}
	return slot, owner
}

func (e *emitter) builtin(in *ir.Instr, dst string, r func(int) string) {
	pos := posLit(in)
	switch ir.Builtin(in.Aux) {
	case ir.BPrint:
		args := make([]string, len(in.Args))
		for i := range in.Args {
			args[i] = r(i)
		}
		e.p("\t%s = bprint(%s)", dst, strings.Join(args, ", "))
	case ir.BSqrt:
		e.p("\t%s = bsqrt(%s, %s)", dst, r(0), pos)
	case ir.BFloor:
		e.p("\t%s = bfloor(%s, %s)", dst, r(0), pos)
	case ir.BAbs:
		e.p("\t%s = babs(%s, %s)", dst, r(0), pos)
	case ir.BMin:
		e.p("\t%s = bminmax(true, %s, %s, %s)", dst, r(0), r(1), pos)
	case ir.BMax:
		e.p("\t%s = bminmax(false, %s, %s, %s)", dst, r(0), r(1), pos)
	case ir.BLen:
		e.p("\t%s = blen(%s, %s)", dst, r(0), pos)
	case ir.BIntOf:
		e.p("\t%s = bintof(%s, %s)", dst, r(0), pos)
	case ir.BFloatOf:
		e.p("\t%s = bfloatof(%s, %s)", dst, r(0), pos)
	case ir.BAssert:
		e.p("\t%s = bassert(%s, %s)", dst, r(0), pos)
	case ir.BStrCat:
		e.p("\t%s = bstrcat(%s, %s)", dst, r(0), r(1))
	case ir.BXor:
		e.p("\t%s = bbxor(%s, %s, %s)", dst, r(0), r(1), pos)
	default:
		e.p("\tpanic(rte(%s, \"unknown builtin\"))", pos)
	}
}

// mainScaffold emits the program-specific entry points the static
// preamble's main() drives: the global register file, per-rep reset, and
// runOnce ($init then main, traps recovered to their message text).
func (e *emitter) mainScaffold() {
	ng := len(e.prog.Globals)
	e.p("var globals [%d]value", ng)
	e.p("")
	e.p("func resetGlobals() {")
	e.p("\tglobals = [%d]value{}", ng)
	e.p("}")
	e.p("")
	e.p("func runOnce() (trap string) {")
	e.p("\tdefer func() {")
	e.p("\t\tif r := recover(); r != nil {")
	e.p("\t\t\tif e, ok := r.(*rtError); ok {")
	e.p("\t\t\t\ttrap = e.Error()")
	e.p("\t\t\t\treturn")
	e.p("\t\t\t}")
	e.p("\t\t\tpanic(r)")
	e.p("\t\t}")
	e.p("\t}()")
	if init := e.prog.FuncNamed(lower.InitFuncName); init != nil {
		e.p("\t%s", callWithNilArgs(e.funcName[init], paramCount(init)))
	}
	e.p("\t%s", callWithNilArgs(e.funcName[e.prog.Main], paramCount(e.prog.Main)))
	e.p("\treturn \"\"")
	e.p("}")
}

// callWithNilArgs renders a call statement passing nil values for every
// parameter (the VM invokes $init and main with no arguments).
func callWithNilArgs(name string, nparams int) string {
	args := make([]string, nparams)
	for i := range args {
		args[i] = "value{}"
	}
	return name + "(" + strings.Join(args, ", ") + ")"
}

// floatLit renders a float64 as a Go expression that reproduces the exact
// bit pattern (FormatFloat -1 round-trips; the special values need help).
func floatLit(f float64) string {
	switch {
	case math.IsNaN(f):
		return "math.NaN()"
	case math.IsInf(f, 1):
		return "math.Inf(1)"
	case math.IsInf(f, -1):
		return "math.Inf(-1)"
	case f == 0 && math.Signbit(f):
		return "math.Copysign(0, -1)"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// san maps an IR name (which may contain the cloner's $ decorations or
// :: separators) to a Go identifier fragment; uniqueness comes from the
// numeric prefixes callers add.
func san(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}
