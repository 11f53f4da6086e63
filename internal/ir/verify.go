package ir

import "fmt"

// Verify checks structural invariants of the program and renumbers every
// function's instructions. It returns the first violation found.
//
// Invariants:
//   - every block ends with exactly one terminator, which is its last
//     instruction;
//   - branch/jump targets are valid block IDs;
//   - register operands are within the function's register count;
//   - field operands belong to (a superclass of) some class layout slot;
//   - static callees are functions of the same program.
func (p *Program) Verify() error {
	funcByID := make(map[*Func]bool, len(p.Funcs))
	for _, f := range p.Funcs {
		funcByID[f] = true
	}
	for _, f := range p.Funcs {
		f.Renumber()
		if err := f.verify(funcByID, len(p.Globals)); err != nil {
			return fmt.Errorf("%s: %w", f.FullName(), err)
		}
	}
	if p.Main == nil {
		return fmt.Errorf("ir: program has no main function")
	}
	return nil
}

func (f *Func) verify(funcs map[*Func]bool, numGlobals int) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %d has ID %d; want index order", i, b.ID)
		}
	}
	// Block IDs are the indices, so a target is valid iff it is in range.
	isBlock := func(id int) bool { return id >= 0 && id < len(f.Blocks) }
	checkReg := func(r Reg, in *Instr) error {
		if r < 0 || int(r) >= f.NumRegs {
			return fmt.Errorf("instr %q: register %d out of range [0,%d)", in, r, f.NumRegs)
		}
		return nil
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block b%d empty", b.ID)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.IsTerminator() != isLast {
				return fmt.Errorf("block b%d instr %d (%s): terminator placement", b.ID, i, in)
			}
			if in.Dst != NoReg {
				if err := checkReg(in.Dst, in); err != nil {
					return err
				}
			}
			for _, a := range in.Args {
				if err := checkReg(a, in); err != nil {
					return err
				}
			}
			switch in.Op {
			case OpJump:
				if !isBlock(in.Target) {
					return fmt.Errorf("jump to unknown block b%d", in.Target)
				}
			case OpBranch:
				if !isBlock(in.Target) || !isBlock(in.Else) {
					return fmt.Errorf("branch to unknown block b%d/b%d", in.Target, in.Else)
				}
				if len(in.Args) != 1 {
					return fmt.Errorf("branch needs one condition arg")
				}
			case OpGetField, OpSetField:
				if in.Field == nil {
					return fmt.Errorf("field op without field")
				}
				// Three legal shapes: name-only (Owner nil, Slot -1),
				// synthetic relative (Owner nil, Slot >= 0), and slot-bound
				// (Owner set, Slot within the owner's layout).
				if owner := in.Field.Owner; owner != nil {
					if in.Field.Slot < 0 || in.Field.Slot >= owner.NumSlots() {
						return fmt.Errorf("field %s has bad slot", in.Field)
					}
				}
			case OpCall, OpCallStatic:
				if in.Callee == nil || !funcs[in.Callee] {
					return fmt.Errorf("call to unknown function")
				}
			case OpCallMethod:
				if len(in.Args) == 0 {
					return fmt.Errorf("method call without receiver")
				}
				if in.Method == "" {
					return fmt.Errorf("method call without name")
				}
			case OpNewObject:
				if in.Class == nil {
					return fmt.Errorf("new without class")
				}
			case OpGetGlobal, OpSetGlobal:
				if in.Global < 0 || in.Global >= numGlobals {
					return fmt.Errorf("global index %d out of range", in.Global)
				}
			}
		}
	}
	return nil
}
