package lower

// Incremental re-lowering. A Snapshot is the product of one cold Lower
// plus the state needed to absorb edits function-by-function: the
// lowerer's name tables (so re-lowered bodies resolve against the *same*
// class, function, field-anchor, and global identities as the retained
// IR) and each declaration's source text with its start position.
//
// Patch re-parses nothing itself — the caller hands it the new checked
// sem.Info — and then:
//
//   - a function whose declarations have the same text at the same start
//     position keeps its prior IR untouched (equal text at an equal start
//     means identical tokens at identical positions, and the name tables
//     are pinned by the structural hash, so lowering would reproduce it
//     bit for bit);
//   - a changed function is re-lowered into a scratch body and shape-
//     compared against its prior IR. When only payload fields differ —
//     constant values, string/float literals, positions: fields the
//     contour analysis provably never reads — the payloads are patched
//     onto the existing instructions, preserving every pointer the prior
//     analysis result may hold into the program. An edit to a comment or
//     to spacing that moves no instruction lands here too, with nothing
//     to patch;
//   - a function whose shape changed has its blocks spliced in wholesale
//     (same *ir.Func object, so callers' Callee pointers stay valid),
//     which invalidates the prior analysis;
//   - an edit that changes program *structure* — the class hierarchy or
//     layouts, the global list, the set or signatures of functions and
//     methods — aborts with ErrStructural and the caller falls back to a
//     cold compile. Structure determines contour keys and function IDs,
//     so nothing incremental is worth salvaging there.
//
// The two-phase layout (scratch-lower everything, then apply) means a
// lowering error leaves the snapshot exactly as it was.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	"objinline/internal/ir"
	"objinline/internal/lang/ast"
	"objinline/internal/lang/sem"
	"objinline/internal/lang/source"
)

// ErrStructural reports an edit that changed program structure (classes,
// fields, globals, or function signatures); the caller must cold-compile.
var ErrStructural = errors.New("lower: structural edit; full recompile required")

// Snapshot is a lowered program retained across edits.
type Snapshot struct {
	prog       *ir.Program
	l          *lowerer
	structural uint64
	texts      map[string][]declText // qualified decl name → its source
}

// declText is one declaration's source text and where it starts. $init
// has one per global, every other function exactly one.
type declText struct {
	pos  source.Pos
	text string
}

// PatchStats reports what one Patch did. The JSON tags are the wire
// shape of the session's incremental block (pipeline.IncrementalStats
// embeds this type).
type PatchStats struct {
	// Changed lists the qualified names of re-lowered functions
	// (methods as "Class.method", "$init" for globals), in declaration
	// order. A function is re-lowered when its declaration's source text
	// or start position changed ($init: any global's), so an edit
	// confined to a comment or spacing inside a body lists it too, and it
	// counts as patched.
	Changed []string `json:"changed_funcs,omitempty"`
	// Reused counts functions whose prior IR was kept untouched.
	Reused int `json:"reused_funcs"`
	// Patched counts re-lowered functions whose new IR differed from the
	// prior only in analysis-inert payload fields, updated in place.
	Patched int `json:"patched_funcs"`
	// Respliced counts functions whose IR shape changed; any prior
	// analysis of the program is invalid.
	Respliced int `json:"respliced_funcs"`
	// PosShifted reports whether any patched instruction's source
	// position moved. When false (a pure value edit: every changed
	// function re-lowered to the same shape at the same positions), every
	// position string the previous compilation baked into its outputs —
	// rejection evidence, stack-site provenance — is still exact, which
	// is what lets the pipeline reuse the prior optimizer result
	// wholesale.
	PosShifted bool `json:"-"`
}

// ShapeChanged reports whether the patch invalidated the prior analysis.
func (ps PatchStats) ShapeChanged() bool { return ps.Respliced > 0 }

// NewSnapshot cold-lowers info and retains the incremental state.
func NewSnapshot(info *sem.Info) (*Snapshot, error) {
	prog, l, err := lowerProgram(info)
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		prog:       prog,
		l:          l,
		structural: structuralHash(info),
		texts:      declTexts(info),
	}, nil
}

// Program returns the snapshot's (verified) program. Patch mutates it in
// place; callers holding it across patches see the updated IR.
func (s *Snapshot) Program() *ir.Program { return s.prog }

// Patch absorbs an edit: info is the newly parsed and checked source.
// On ErrStructural or a lowering error the snapshot is unmodified.
func (s *Snapshot) Patch(info *sem.Info) (PatchStats, error) {
	var ps PatchStats
	if structuralHash(info) != s.structural {
		return ps, ErrStructural
	}

	// Scratch phase: re-lower every changed declaration against the
	// retained name tables, touching nothing yet.
	var errs source.ErrorList
	sl := &lowerer{
		info:    info,
		prog:    s.prog,
		errs:    &errs,
		classes: s.l.classes,
		funcs:   s.l.funcs,
		globals: s.l.globals,
		anchors: s.l.anchors,
	}
	type work struct {
		qname string
		texts []declText
		fn    *ir.Func // the retained function to update
		tmp   *ir.Func // freshly lowered body
	}
	var pending []work
	var texts []declText
	for _, d := range declsInOrder(info) {
		texts = appendTexts(texts[:0], d, info.Program.Globals)
		if slices.Equal(texts, s.texts[d.qname]) {
			ps.Reused++
			continue
		}
		fn := s.lookupFunc(d.qname, d.class)
		if fn == nil {
			// Unreachable given an equal structural hash.
			return PatchStats{}, fmt.Errorf("lower: incremental patch lost function %s", d.qname)
		}
		tmp := &ir.Func{Name: fn.Name, Class: fn.Class, NumParams: fn.NumParams}
		if d.qname == InitFuncName {
			sl.lowerGlobalInitInto(tmp, info.Program.Globals)
		} else {
			sl.lowerFunc(tmp, d.decl)
		}
		pending = append(pending, work{d.qname, slices.Clone(texts), fn, tmp})
	}
	if err := errs.Err(); err != nil {
		return PatchStats{}, err
	}

	// Apply phase: patch payloads in place where the shape held, splice
	// blocks where it did not.
	for _, w := range pending {
		ps.Changed = append(ps.Changed, w.qname)
		if shapeEqual(w.fn, w.tmp) {
			if patchPayloads(w.fn, w.tmp) {
				ps.PosShifted = true
			}
			ps.Patched++
		} else {
			w.fn.Blocks = w.tmp.Blocks
			w.fn.NumRegs = w.tmp.NumRegs
			ps.Respliced++
		}
		s.texts[w.qname] = w.texts
	}
	if len(pending) > 0 {
		if err := s.prog.Verify(); err != nil {
			return PatchStats{}, fmt.Errorf("lower: incremental patch broke the program: %w", err)
		}
	}
	return ps, nil
}

func (s *Snapshot) lookupFunc(qname string, class string) *ir.Func {
	if class == "" {
		return s.l.funcs[qname]
	}
	if c := s.l.classes[class]; c != nil {
		return c.Methods[qname[len(class)+1:]]
	}
	return nil
}

// orderedDecl is one function-shaped declaration in program order.
type orderedDecl struct {
	qname string // "f", "Class.m", or InitFuncName
	class string // "" for top-level functions and $init
	decl  *ast.FuncDecl
}

// declsInOrder lists declarations in the exact order Lower assigns
// function IDs: top-level functions, then methods class by class, then
// the synthetic $init.
func declsInOrder(info *sem.Info) []orderedDecl {
	var out []orderedDecl
	for _, fd := range info.Program.Funcs {
		if info.Funcs[fd.Name] == fd {
			out = append(out, orderedDecl{fd.Name, "", fd})
		}
	}
	for _, name := range info.Order {
		decl := info.Classes[name]
		seen := map[string]bool{}
		for _, md := range decl.Methods {
			if seen[md.Name] {
				continue
			}
			seen[md.Name] = true
			out = append(out, orderedDecl{name + "." + md.Name, name, md})
		}
	}
	if hasGlobalInits(info.Program.Globals) {
		out = append(out, orderedDecl{InitFuncName, "", nil})
	}
	return out
}

// declTexts maps every declaration to its source texts.
func declTexts(info *sem.Info) map[string][]declText {
	texts := make(map[string][]declText)
	for _, d := range declsInOrder(info) {
		texts[d.qname] = appendTexts(nil, d, info.Program.Globals)
	}
	return texts
}

// appendTexts appends the texts d is lowered from to dst: its own
// declaration's, or for $init every global's.
func appendTexts(dst []declText, d orderedDecl, globals []*ast.VarStmt) []declText {
	if d.qname != InitFuncName {
		return append(dst, declText{d.decl.NamePos, d.decl.Text})
	}
	for _, g := range globals {
		dst = append(dst, declText{g.VarPos, g.Text})
	}
	return dst
}

// structuralHash digests everything that shapes program identity beyond
// function bodies: the class order, hierarchy, and field layouts; method
// sets and arities (in declaration order — they fix function IDs); the
// top-level function list and arities; the global list; and whether a
// $init function exists. Any change here perturbs contour keys, slot
// layouts, or ID assignment, so the caller must recompile cold.
func structuralHash(info *sem.Info) uint64 {
	h := fnv.New64a()
	field := func(parts ...string) {
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	for _, name := range info.Order {
		decl := info.Classes[name]
		field("class", name, decl.Super)
		for _, f := range decl.Fields {
			field("field", f.Name)
		}
		for _, m := range decl.Methods {
			field("method", m.Name, fmt.Sprint(len(m.Params)))
		}
	}
	for _, fd := range info.Program.Funcs {
		if info.Funcs[fd.Name] == fd {
			field("func", fd.Name, fmt.Sprint(len(fd.Params)))
		}
	}
	for _, g := range info.Globals {
		field("global", g)
	}
	if hasGlobalInits(info.Program.Globals) {
		field("init")
	}
	return h.Sum64()
}

// shapeEqual reports whether two lowered bodies are identical in every
// field the contour analysis can observe. Payload fields — const values
// (Aux on OpConstInt/OpConstBool), F, S, B, and Pos — are excluded: the
// analysis dispatches on Aux only for OpBin/OpUn/OpBuiltin opcodes and
// never reads the others (no .Pos/.S/.F/.B access exists in
// internal/analysis), so two shape-equal bodies have byte-identical
// analysis results. Pointer fields must be *identical*, not just
// equivalent: the retained program and the scratch lowering share one set
// of class, function, and field-anchor objects, so any pointer mismatch
// is a real difference.
func shapeEqual(a, b *ir.Func) bool {
	if a.NumParams != b.NumParams || a.NumRegs != b.NumRegs || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i, ab := range a.Blocks {
		bb := b.Blocks[i]
		if len(ab.Instrs) != len(bb.Instrs) {
			return false
		}
		for j, ai := range ab.Instrs {
			bi := bb.Instrs[j]
			if ai.Op != bi.Op || ai.Dst != bi.Dst || len(ai.Args) != len(bi.Args) {
				return false
			}
			for k := range ai.Args {
				if ai.Args[k] != bi.Args[k] {
					return false
				}
			}
			if ai.Class != bi.Class || ai.Field != bi.Field || ai.Callee != bi.Callee ||
				ai.Method != bi.Method || ai.Global != bi.Global ||
				ai.Target != bi.Target || ai.Else != bi.Else {
				return false
			}
			if ai.Aux != bi.Aux && !isAuxPayload(ai.Op) {
				return false
			}
		}
	}
	return true
}

// isAuxPayload reports whether Aux carries a constant value rather than
// an operator code for op — the one place Aux is analysis-inert.
func isAuxPayload(op ir.Op) bool {
	return op == ir.OpConstInt || op == ir.OpConstBool
}

// patchPayloads copies the analysis-inert fields of b onto a's
// instructions, which shapeEqual has verified correspond one to one. It
// reports whether any instruction's position moved.
func patchPayloads(a, b *ir.Func) (posShifted bool) {
	for i, ab := range a.Blocks {
		bb := b.Blocks[i]
		for j, ai := range ab.Instrs {
			bi := bb.Instrs[j]
			ai.Aux = bi.Aux
			ai.F = bi.F
			ai.S = bi.S
			ai.B = bi.B
			if ai.Pos != bi.Pos {
				ai.Pos = bi.Pos
				posShifted = true
			}
		}
	}
	return posShifted
}
