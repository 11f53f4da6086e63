// Package lower translates Mini-ICC syntax trees into IR. It performs
// local name resolution (parameters, locals, globals), lowers short-circuit
// operators to control flow, resolves direct calls, and builds class slot
// layouts (superclass fields first, so subclass layouts conform).
//
// Field accesses are lowered as *name-only* references (Slot == -1): in the
// uniform object model the receiver's class is unknown statically, so the
// VM resolves field names per class at run time. The analysis and cloning
// passes later rebind accesses to concrete slots when the receiver type is
// precise — exactly the progression the Concert compiler follows.
package lower

import (
	"objinline/internal/ir"
	"objinline/internal/lang/ast"
	"objinline/internal/lang/sem"
	"objinline/internal/lang/source"
)

// InitFuncName is the synthetic function holding global initializers; the
// VM runs it before main, and the analysis treats it as a root.
const InitFuncName = "$init"

// Lower converts a checked program into IR. The returned program has been
// verified.
func Lower(info *sem.Info) (*ir.Program, error) {
	prog, _, err := lowerProgram(info)
	return prog, err
}

// lowerProgram is Lower exposing the lowerer itself, whose name tables
// (classes, functions, globals, field anchors) an incremental Snapshot
// retains so that later edits can re-lower single functions against the
// same identities.
func lowerProgram(info *sem.Info) (*ir.Program, *lowerer, error) {
	var errs source.ErrorList
	l := &lowerer{
		info:    info,
		prog:    ir.NewProgram(),
		errs:    &errs,
		classes: make(map[string]*ir.Class),
		funcs:   make(map[string]*ir.Func),
		globals: make(map[string]int),
		anchors: make(map[string]*ir.Field),
	}

	// Class layouts, superclasses first.
	for _, name := range info.Order {
		decl := info.Classes[name]
		c := &ir.Class{Name: name, Methods: make(map[string]*ir.Func)}
		if decl.Super != "" {
			c.Super = l.classes[decl.Super]
			if c.Super != nil {
				c.Fields = append(c.Fields, c.Super.Fields...)
			}
		}
		for _, f := range decl.Fields {
			c.Fields = append(c.Fields, &ir.Field{Name: f.Name, Slot: len(c.Fields), Owner: c})
		}
		l.prog.AddClass(c)
		l.classes[name] = c
	}

	// Globals.
	for i, g := range info.Globals {
		l.prog.Globals = append(l.prog.Globals, g)
		l.globals[g] = i
	}

	// Declare functions and methods before lowering bodies so calls can be
	// resolved directly.
	for _, fd := range info.Program.Funcs {
		if info.Funcs[fd.Name] != fd {
			continue // duplicate, reported by sem
		}
		f := &ir.Func{Name: fd.Name, NumParams: len(fd.Params)}
		l.prog.AddFunc(f)
		l.funcs[fd.Name] = f
	}
	type methodWork struct {
		decl *ast.FuncDecl
		fn   *ir.Func
	}
	var methods []methodWork
	for _, name := range info.Order {
		decl := info.Classes[name]
		c := l.classes[name]
		for _, md := range decl.Methods {
			if _, dup := c.Methods[md.Name]; dup {
				continue
			}
			f := &ir.Func{Name: md.Name, Class: c, NumParams: len(md.Params)}
			l.prog.AddFunc(f)
			c.Methods[md.Name] = f
			methods = append(methods, methodWork{md, f})
		}
	}

	// Lower bodies.
	for _, fd := range info.Program.Funcs {
		if fn := l.funcs[fd.Name]; fn != nil && info.Funcs[fd.Name] == fd {
			l.lowerFunc(fn, fd)
		}
	}
	for _, mw := range methods {
		l.lowerFunc(mw.fn, mw.decl)
	}

	// Global initializers go into a synthetic $init function that runs
	// before main.
	if hasGlobalInits(info.Program.Globals) {
		l.lowerGlobalInit(info.Program.Globals)
	}

	l.prog.Main = l.funcs["main"]

	if err := errs.Err(); err != nil {
		return nil, nil, err
	}
	if err := l.prog.Verify(); err != nil {
		return nil, nil, err
	}
	return l.prog, l, nil
}

func hasGlobalInits(globals []*ast.VarStmt) bool {
	for _, g := range globals {
		if g.Init != nil {
			return true
		}
	}
	return false
}

type lowerer struct {
	info    *sem.Info
	prog    *ir.Program
	errs    *source.ErrorList
	classes map[string]*ir.Class
	funcs   map[string]*ir.Func
	globals map[string]int
	anchors map[string]*ir.Field
}

// anchorField returns the canonical name-only field reference used before
// optimization binds accesses to concrete slots.
func (l *lowerer) anchorField(name string) *ir.Field {
	if f, ok := l.anchors[name]; ok {
		return f
	}
	f := &ir.Field{Name: name, Slot: -1}
	l.anchors[name] = f
	return f
}

func (l *lowerer) lowerGlobalInit(globals []*ast.VarStmt) {
	fn := &ir.Func{Name: InitFuncName}
	l.prog.AddFunc(fn)
	l.funcs[InitFuncName] = fn
	l.lowerGlobalInitInto(fn, globals)
}

// lowerGlobalInitInto lowers the global initializers into fn's body; the
// incremental path reuses it to rebuild $init in place after an edit.
func (l *lowerer) lowerGlobalInitInto(fn *ir.Func, globals []*ast.VarStmt) {
	fb := &funcBuilder{l: l, fn: fn, vars: make(map[string]binding)}
	fb.pushScope()
	fb.cur = fb.newBlock()
	for _, g := range globals {
		if g.Init == nil {
			continue
		}
		v := fb.expr(g.Init)
		fb.emit(&ir.Instr{Op: ir.OpSetGlobal, Dst: ir.NoReg, Global: l.globals[g.Name], Args: []ir.Reg{v}, Pos: g.Pos()})
	}
	nilReg := fb.newReg()
	fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: nilReg})
	fb.emit(&ir.Instr{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{nilReg}})
	fn.NumRegs = int(fb.nextReg)
}

type loopCtx struct {
	breakTo    *ir.Block
	continueTo *ir.Block
}

type funcBuilder struct {
	l       *lowerer
	fn      *ir.Func
	cur     *ir.Block
	nextReg ir.Reg
	// vars maps each visible local to its innermost binding. Every
	// declaration logs the binding it shadowed in undo, and popScope
	// restores the entries logged since the scope's mark, so a lookup is
	// one map probe whatever the nesting depth.
	vars  map[string]binding
	undo  []shadowed
	marks []int
	loops []loopCtx
}

// binding is a local's register and the depth of the scope declaring it.
type binding struct {
	reg   ir.Reg
	depth int
}

// shadowed is one declaration's undo entry: the binding name had before
// it (ok is false when name was unbound).
type shadowed struct {
	name string
	prev binding
	ok   bool
}

func (fb *funcBuilder) pushScope() { fb.marks = append(fb.marks, len(fb.undo)) }

func (fb *funcBuilder) popScope() {
	mark := fb.marks[len(fb.marks)-1]
	for i := len(fb.undo) - 1; i >= mark; i-- {
		if u := fb.undo[i]; u.ok {
			fb.vars[u.name] = u.prev
		} else {
			delete(fb.vars, u.name)
		}
	}
	fb.undo = fb.undo[:mark]
	fb.marks = fb.marks[:len(fb.marks)-1]
}

func (fb *funcBuilder) declare(name string, pos source.Pos) ir.Reg {
	depth := len(fb.marks)
	prev, ok := fb.vars[name]
	if ok && prev.depth == depth {
		fb.l.errs.Add(pos, "%s redeclared in this scope", name)
	}
	r := fb.newReg()
	fb.undo = append(fb.undo, shadowed{name: name, prev: prev, ok: ok})
	fb.vars[name] = binding{reg: r, depth: depth}
	return r
}

func (fb *funcBuilder) lookup(name string) (ir.Reg, bool) {
	if b, ok := fb.vars[name]; ok {
		return b.reg, true
	}
	return ir.NoReg, false
}

func (fb *funcBuilder) newReg() ir.Reg {
	r := fb.nextReg
	fb.nextReg++
	return r
}

func (fb *funcBuilder) newBlock() *ir.Block {
	b := &ir.Block{ID: len(fb.fn.Blocks)}
	fb.fn.Blocks = append(fb.fn.Blocks, b)
	return b
}

func (fb *funcBuilder) emit(in *ir.Instr) *ir.Instr {
	fb.cur.Instrs = append(fb.cur.Instrs, in)
	return in
}

func (fb *funcBuilder) terminated() bool {
	n := len(fb.cur.Instrs)
	return n > 0 && fb.cur.Instrs[n-1].IsTerminator()
}

func (fb *funcBuilder) jump(to *ir.Block, pos source.Pos) {
	if !fb.terminated() {
		fb.emit(&ir.Instr{Op: ir.OpJump, Dst: ir.NoReg, Target: to.ID, Pos: pos})
	}
}

func (l *lowerer) lowerFunc(fn *ir.Func, decl *ast.FuncDecl) {
	fb := &funcBuilder{l: l, fn: fn, vars: make(map[string]binding)}
	fb.pushScope()
	if fn.Class != nil {
		fb.nextReg = 1 // r0 = self
	}
	for _, p := range decl.Params {
		fb.declare(p.Name, p.Pos())
	}
	fb.cur = fb.newBlock()
	fb.block(decl.Body)
	if !fb.terminated() {
		nilReg := fb.newReg()
		fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: nilReg, Pos: decl.Pos()})
		fb.emit(&ir.Instr{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{nilReg}, Pos: decl.Pos()})
	}
	fn.NumRegs = int(fb.nextReg)
	fb.popScope()
}

func (fb *funcBuilder) block(blk *ast.BlockStmt) {
	fb.pushScope()
	for _, s := range blk.Stmts {
		if fb.terminated() {
			// Unreachable code after return/break: lower into a fresh dead
			// block so diagnostics still fire; terminate it afterwards.
			fb.cur = fb.newBlock()
			defer func(dead *ir.Block) {
				if n := len(dead.Instrs); n == 0 || !dead.Instrs[n-1].IsTerminator() {
					dead.Instrs = append(dead.Instrs, &ir.Instr{Op: ir.OpTrap, Dst: ir.NoReg, S: "unreachable"})
				}
			}(fb.cur)
		}
		fb.stmt(s)
	}
	fb.popScope()
}

func (fb *funcBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		fb.block(s)
	case *ast.VarStmt:
		var v ir.Reg = ir.NoReg
		if s.Init != nil {
			v = fb.expr(s.Init)
		}
		r := fb.declare(s.Name, s.Pos())
		if v != ir.NoReg {
			fb.emit(&ir.Instr{Op: ir.OpMove, Dst: r, Args: []ir.Reg{v}, Pos: s.Pos()})
		} else {
			fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: r, Pos: s.Pos()})
		}
	case *ast.AssignStmt:
		fb.assign(s)
	case *ast.ExprStmt:
		fb.expr(s.X)
	case *ast.IfStmt:
		fb.ifStmt(s)
	case *ast.WhileStmt:
		fb.whileStmt(s)
	case *ast.ForStmt:
		fb.forStmt(s)
	case *ast.ReturnStmt:
		var arg ir.Reg
		if s.Value != nil {
			arg = fb.expr(s.Value)
		} else {
			arg = fb.newReg()
			fb.emit(&ir.Instr{Op: ir.OpConstNil, Dst: arg, Pos: s.Pos()})
		}
		fb.emit(&ir.Instr{Op: ir.OpReturn, Dst: ir.NoReg, Args: []ir.Reg{arg}, Pos: s.Pos()})
	case *ast.BreakStmt:
		if len(fb.loops) == 0 {
			fb.l.errs.Add(s.Pos(), "break outside loop")
			return
		}
		fb.jump(fb.loops[len(fb.loops)-1].breakTo, s.Pos())
	case *ast.ContinueStmt:
		if len(fb.loops) == 0 {
			fb.l.errs.Add(s.Pos(), "continue outside loop")
			return
		}
		fb.jump(fb.loops[len(fb.loops)-1].continueTo, s.Pos())
	default:
		fb.l.errs.Add(s.Pos(), "unsupported statement")
	}
}

func (fb *funcBuilder) assign(s *ast.AssignStmt) {
	switch t := s.Target.(type) {
	case *ast.Ident:
		v := fb.expr(s.Value)
		if r, ok := fb.lookup(t.Name); ok {
			fb.emit(&ir.Instr{Op: ir.OpMove, Dst: r, Args: []ir.Reg{v}, Pos: s.Pos()})
			return
		}
		if g, ok := fb.l.globals[t.Name]; ok {
			fb.emit(&ir.Instr{Op: ir.OpSetGlobal, Dst: ir.NoReg, Global: g, Args: []ir.Reg{v}, Pos: s.Pos()})
			return
		}
		fb.l.errs.Add(t.Pos(), "assignment to undeclared variable %s", t.Name)
	case *ast.FieldExpr:
		obj := fb.expr(t.Recv)
		v := fb.expr(s.Value)
		fb.emit(&ir.Instr{
			Op: ir.OpSetField, Dst: ir.NoReg, Args: []ir.Reg{obj, v},
			Field: fb.l.anchorField(t.Name), Pos: s.Pos(),
		})
	case *ast.IndexExpr:
		arr := fb.expr(t.Arr)
		idx := fb.expr(t.Index)
		v := fb.expr(s.Value)
		fb.emit(&ir.Instr{Op: ir.OpArrSet, Dst: ir.NoReg, Args: []ir.Reg{arr, idx, v}, Pos: s.Pos()})
	default:
		fb.l.errs.Add(s.Pos(), "invalid assignment target")
	}
}

func (fb *funcBuilder) ifStmt(s *ast.IfStmt) {
	cond := fb.expr(s.Cond)
	br := fb.emit(&ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{cond}, Pos: s.Pos()})
	thenBlk := fb.newBlock()
	br.Target = thenBlk.ID
	fb.cur = thenBlk
	fb.block(s.Then)
	thenEnd := fb.cur

	var elseEnd *ir.Block
	if s.Else != nil {
		elseBlk := fb.newBlock()
		br.Else = elseBlk.ID
		fb.cur = elseBlk
		fb.stmt(s.Else)
		elseEnd = fb.cur
	}

	join := fb.newBlock()
	// Fallthrough edges into the join block.
	fb.cur = thenEnd
	fb.jump(join, s.Pos())
	if s.Else != nil {
		fb.cur = elseEnd
		fb.jump(join, s.Pos())
	} else {
		br.Else = join.ID
	}
	fb.cur = join
}

func (fb *funcBuilder) whileStmt(s *ast.WhileStmt) {
	head := fb.newBlock()
	fb.jump(head, s.Pos())
	fb.cur = head
	cond := fb.expr(s.Cond)
	body := fb.newBlock()
	exit := fb.newBlock()
	fb.emit(&ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{cond}, Target: body.ID, Else: exit.ID, Pos: s.Pos()})
	fb.cur = body
	fb.loops = append(fb.loops, loopCtx{breakTo: exit, continueTo: head})
	fb.block(s.Body)
	fb.loops = fb.loops[:len(fb.loops)-1]
	fb.jump(head, s.Pos())
	fb.cur = exit
}

func (fb *funcBuilder) forStmt(s *ast.ForStmt) {
	fb.pushScope()
	if s.Init != nil {
		fb.stmt(s.Init)
	}
	head := fb.newBlock()
	fb.jump(head, s.Pos())
	fb.cur = head
	body := fb.newBlock()
	post := fb.newBlock()
	exit := fb.newBlock()
	if s.Cond != nil {
		// Re-enter head to evaluate the condition each iteration.
		fb.cur = head
		cond := fb.expr(s.Cond)
		fb.emit(&ir.Instr{Op: ir.OpBranch, Dst: ir.NoReg, Args: []ir.Reg{cond}, Target: body.ID, Else: exit.ID, Pos: s.Pos()})
	} else {
		fb.cur = head
		fb.jump(body, s.Pos())
	}
	fb.cur = body
	fb.loops = append(fb.loops, loopCtx{breakTo: exit, continueTo: post})
	fb.block(s.Body)
	fb.loops = fb.loops[:len(fb.loops)-1]
	fb.jump(post, s.Pos())

	fb.cur = post
	if s.Post != nil {
		fb.stmt(s.Post)
	}
	fb.jump(head, s.Pos())
	fb.cur = exit
	fb.popScope()
}
