package analysis

import "slices"

// The fixpoint solvers.
//
// Both solvers evaluate method contours in place (Gauss–Seidel: a change
// made by an earlier contour is visible to later contours in the same
// round) and share every transfer function in analysis.go; they differ
// only in which contours are evaluated when.
//
// Neither solver caps its rounds: a pass runs until a round changes
// nothing, since the result is sound only at the fixpoint. Each further
// round follows growth in a finite lattice or a new contour or tag, all
// bounded (DESIGN.md §8), and the context poll bounds wall time.
//
// The sweep solver re-evaluates *every* contour every round until a full
// round changes nothing. The worklist solver tracks, per VarState, the
// set of instructions (per method contour) whose evaluation has read it;
// when a state actually changes, only those readers are rescheduled:
//
//   - a reader with a higher ID than the contour currently evaluating has
//     not run yet this round, so it is scheduled for the current round —
//     exactly when the sweep would evaluate it with the change visible;
//   - a reader with a lower (or equal) ID already ran this round, so it
//     is scheduled for the next round — exactly when the sweep would
//     revisit it;
//   - a newly created contour joins the current round (the sweep's
//     evaluation loop iterates over the growing contour list).
//
// Rounds drain in ascending contour-ID order. Because a contour none of
// whose inputs changed is a no-op under monotone transfer functions (it
// re-merges values that are already included, re-requests contours and
// tags that are already interned, and re-binds call edges that already
// exist), skipping it is unobservable — so the worklist performs the same
// effectful evaluations in the same order as the sweep and produces a
// bit-identical Result: same contour and tag IDs, same final VarStates,
// same call edges, same inlining decisions. The differential tests in
// solver_test.go and the pipeline fuzz corpus hold the solvers to
// byte-equal reports.
//
// Dependency granularity is the VarState (one contour register, one
// object-contour field, one array-contour element summary, one global,
// one contour return cell) read by one *instruction* of one contour: a
// reader is a (contour, flattened instruction position) pair, and a
// scheduled contour re-evaluates only its dirty instructions, in program
// order. Skipping a clean instruction is sound by the same no-op
// argument that justifies skipping a clean contour: its transfer
// function is monotone and its inputs are unchanged since its last
// application, so re-applying it could only re-add what is already
// there. An instruction's *first* evaluation always happens (contours
// are created with every instruction dirty), and an instruction whose
// behavior is guarded by some state it has read (e.g. a field load
// iterating the receiver's object contours) is re-run whenever that
// state grows, at which point it registers reads on any newly reachable
// cells — so dependencies stay complete as the state space unfolds.
// One call-site input lives outside any VarState: getMC's coercion of
// split keys to the base contour once the contour list reaches
// Options.MaxContours. That transition is handled globally — the
// filling creation re-dirties every call instruction in every contour
// (redirtyCallSites in analysis.go), replaying the full revisit the
// sweep performs after it anyway.
// This per-instruction refinement is where the solver's work drop
// becomes super-proportional: a rescheduled contour typically re-runs
// one call or field instruction, not its whole body.

// WorkStats counts solver effort. The counters make the solver's
// complexity observable: the worklist's InstrEvals should drop
// super-proportionally versus the sweep's on programs with many contours
// (BenchmarkAnalyze in internal/bench times both).
type WorkStats struct {
	// Rounds is the number of fixpoint rounds across all passes.
	Rounds int `json:"rounds"`
	// ContourEvals counts whole-contour evaluations.
	ContourEvals int `json:"contour_evals"`
	// InstrEvals counts full instruction transfer-function applications —
	// the analysis's innermost unit of work.
	InstrEvals int `json:"instr_evals"`
	// PartialEvals counts the worklist's partial re-evaluations (argument
	// or return re-merges through existing bindings; see the slot
	// taxonomy below). Always 0 for the sweep, which only applies full
	// transfer functions.
	PartialEvals int `json:"partial_evals"`
	// Enqueues counts contour activations scheduled by dependency hits
	// (including initial activations at contour creation); always 0 for
	// the sweep solver, which schedules implicitly.
	Enqueues int `json:"enqueues"`
}

// cancelPollInterval is how many contour evaluations a pass runs
// between context polls. Amortizing the poll keeps the channel select off
// the drain loop's hot path while still aborting within a few dozen
// contour evaluations — microseconds each — of the deadline.
const cancelPollInterval = 32

// cancelled reports whether the analysis context has been canceled,
// latching the context error on first observation. The solvers reach it
// through pollCancelled, which amortizes the check.
func (a *analyzer) cancelled() bool {
	if a.done == nil {
		return false
	}
	if a.ctxErr != nil {
		return true
	}
	select {
	case <-a.done:
		a.ctxErr = a.ctx.Err()
		return true
	default:
		return false
	}
}

// pollCancelled is the amortized cancellation checkpoint, called once per
// contour evaluation (the drain loops' innermost schedulable unit). With
// no cancelable context it is a single nil comparison; with one, the
// channel poll runs every cancelPollInterval evaluations.
func (a *analyzer) pollCancelled() bool {
	if a.done == nil {
		return false
	}
	a.pollN--
	if a.pollN > 0 {
		return false
	}
	a.pollN = cancelPollInterval
	return a.cancelled()
}

// runSweep is the naive solver: global rounds over every contour until a
// whole round changes nothing. Kept as the reference implementation
// (Options.Solver == SolverSweep) for differential testing.
func (a *analyzer) runSweep() {
	for {
		a.work.Rounds++
		a.changed = false
		// The list grows while we iterate; newly created contours are
		// evaluated within the same round.
		for i := 0; i < len(a.mcList); i++ {
			if a.pollCancelled() {
				return
			}
			a.evalContour(a.mcList[i])
		}
		if !a.changed {
			return
		}
	}
}

// runWorklist drains rounds of dirty contours in ascending ID order; see
// the package comment above for why this reproduces the sweep exactly.
func (a *analyzer) runWorklist() {
	for {
		a.work.Rounds++
		for i := 0; i < len(a.mcList); i++ {
			if !a.dirtyCur[i] {
				continue
			}
			if a.pollCancelled() {
				a.curIdx = -1
				return
			}
			a.dirtyCur[i] = false
			a.curIdx = i
			a.evalContour(a.mcList[i])
		}
		a.curIdx = -1
		if a.pendingNext == 0 {
			return
		}
		// The scan cleared every dirtyCur entry (entries set behind the
		// cursor go to dirtyNext, entries ahead were visited), so the old
		// slice is reusable as the next round's empty next-set.
		a.dirtyCur, a.dirtyNext = a.dirtyNext, a.dirtyCur
		a.pendingNext = 0
	}
}

// A reader identifies one dependent of a VarState: one slot of one
// instruction of one method contour, packed as
//
//	contourID<<32 | (3*instrPos + slot + 1)
//
// so that zero (VarState's zero value) means "no reader" and the reader
// lists stay pointer-free — plain sorted integers, invisible to the
// garbage collector. The three slots split an instruction's inputs by
// which partial re-evaluation a change requires:
//
//	slotFull — control inputs (operands, the receiver of a call, the base
//	  of a field or array access): a change can alter which bindings or
//	  contours the instruction touches, so the whole transfer function
//	  re-runs.
//	slotArgs — data flowing through existing bindings (call argument
//	  registers, the field/element source cells of a load): a change
//	  only needs re-merging through the bindings already recorded.
//	slotRet — callee return cells: a change only needs re-merging into
//	  the call's destination register.
//
// The partial evaluations (evalArgs, evalRet in analysis.go) are exact:
// they perform precisely the subset of the full transfer function's
// merges that the changed input feeds. The site's control inputs are
// unchanged (else slotFull would be dirty and the full function would
// run instead), so the bindings a full re-run would enumerate are
// exactly those recorded by the site's last full evaluation — and the
// partials replay them from calleeOrder in that same enumeration order.
// The order matters: tag sets saturate (TagSet.Add collapses members
// past a size cap to Top, keeping established members), so per-cell
// merge *order*, not just the merge set, determines the result. Because
// the partials run at exactly the visits where the sweep would re-run
// the full function, apply the same effective merges per cell in the
// same order, and skip only merges whose inputs are unchanged (no-ops
// even at saturation: re-adding a collapsed tag re-collapses to the
// already-present Top), the worklist's states stay bit-identical to the
// sweep's.
const (
	slotFull = iota
	slotArgs
	slotRet
	numSlots
)

// use registers the currently evaluating instruction as a slotFull
// reader of vs and returns vs. Every transfer function routes its
// *inputs* through use (or useArg/useRet); writes go through the merge
// helpers, which bump readers on change. The common case — an
// instruction re-reading the register it always reads — hits the
// single-reader fast path (one comparison).
func (a *analyzer) use(vs *VarState) *VarState    { return a.register(vs, slotFull) }
func (a *analyzer) useArg(vs *VarState) *VarState { return a.register(vs, slotArgs) }
func (a *analyzer) useRet(vs *VarState) *VarState { return a.register(vs, slotRet) }

func (a *analyzer) register(vs *VarState, slot int) *VarState {
	if a.sweep || a.cur == nil {
		return vs
	}
	r := uint64(a.cur.ID)<<32 | uint64(numSlots*a.curInstr+slot+1)
	for i, d := range vs.dep {
		switch d {
		case r:
			return vs
		case 0:
			vs.dep[i] = r
			return vs
		}
	}
	if vs.deps == nil {
		// The header comes from a slab. Room for four readers saves the
		// first regrowths: on richards, 141 of 178 spilled cells stay
		// that small.
		vs.deps = a.spills.one()
		*vs.deps = make([]uint64, 0, 4)
	}
	if i, ok := slices.BinarySearch(*vs.deps, r); !ok {
		*vs.deps = slices.Insert(*vs.deps, i, r)
	}
	return vs
}

// bump records that vs changed: the sweep flips the global changed bit;
// the worklist reschedules exactly the instruction slots that have read
// vs.
func (a *analyzer) bump(vs *VarState) {
	a.changed = true
	if a.sweep {
		return
	}
	for _, r := range vs.dep {
		if r == 0 {
			break
		}
		a.mark(r)
	}
	if vs.deps != nil {
		for _, r := range *vs.deps {
			a.mark(r)
		}
	}
}

// mark reschedules one reading instruction slot. If the reader sits
// ahead of the in-progress scan of the contour currently being
// evaluated, setting its dirty bit is enough — this very visit will
// reach it with the change applied, exactly the in-place visibility the
// sweep has. Otherwise the reader's contour is (re-)scheduled at round
// granularity and the bit tells its next visit what to re-run.
func (a *analyzer) mark(r uint64) {
	mc := a.mcList[r>>32]
	bit := int(uint32(r)) - 1
	mc.dirty[bit] = true
	if mc == a.cur && bit/numSlots > a.curInstr {
		return
	}
	a.enqueue(mc)
}

// enqueue schedules a contour: into the current round if it has not run
// yet this round (ID above the cursor), else into the next round. The
// order bump marks readers in never matters — marking dirty bits is
// idempotent and the drain order is always ascending ID.
func (a *analyzer) enqueue(mc *MethodContour) {
	id := mc.ID
	if id > a.curIdx {
		if !a.dirtyCur[id] {
			a.dirtyCur[id] = true
			a.work.Enqueues++
		}
	} else if !a.dirtyNext[id] {
		a.dirtyNext[id] = true
		a.pendingNext++
		a.work.Enqueues++
	}
}

// ---- Change-tracking merges ----
//
// Every transfer function writes analysis cells through these, so that a
// cell that actually changes bumps its readers (see bump).

// merge wraps State.Merge with change tracking.
func (a *analyzer) merge(dst, src *VarState) {
	if dst.Merge(&src.State) {
		a.bump(dst)
	}
}

// unionTS unions src's TypeSet (only) into dst, as the field/element load
// transfer functions do.
func (a *analyzer) unionTS(dst, src *VarState) {
	if dst.TS.Union(&src.TS) {
		a.bump(dst)
	}
}

func (a *analyzer) addPrim(dst *VarState, m PrimMask) {
	if dst.TS.AddPrim(m) {
		a.bump(dst)
	}
}

func (a *analyzer) addObj(dst *VarState, oc *ObjContour) {
	if dst.TS.AddObj(oc) {
		a.bump(dst)
	}
}

func (a *analyzer) addArr(dst *VarState, ac *ArrContour) {
	if dst.TS.AddArr(ac) {
		a.bump(dst)
	}
}

func (a *analyzer) addTag(dst *VarState, t *Tag) {
	if !a.opts.Tags {
		return
	}
	if dst.Tags.Add(t) {
		a.bump(dst)
	}
}
