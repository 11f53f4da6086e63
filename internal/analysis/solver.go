package analysis

// The fixpoint solvers.
//
// Both solvers evaluate method contours in place (Gauss–Seidel: a change
// made by an earlier contour is visible to later contours in the same
// round) and share every transfer function in analysis.go; they differ
// only in which contours are evaluated when.
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
	Rounds int
	// ContourEvals counts whole-contour evaluations.
	ContourEvals int
	// InstrEvals counts full instruction transfer-function applications —
	// the analysis's innermost unit of work.
	InstrEvals int
	// PartialEvals counts the worklist's partial re-evaluations (argument
	// or return re-merges through existing bindings; see the slot
	// taxonomy below). Always 0 for the sweep, which only applies full
	// transfer functions.
	PartialEvals int
	// Enqueues counts contour activations scheduled by dependency hits
	// (including initial activations at contour creation); always 0 for
	// the sweep solver, which schedules implicitly.
	Enqueues int
}

func (w *WorkStats) add(o WorkStats) {
	w.Rounds += o.Rounds
	w.ContourEvals += o.ContourEvals
	w.InstrEvals += o.InstrEvals
	w.PartialEvals += o.PartialEvals
	w.Enqueues += o.Enqueues
}

// cancelPollInterval is how many contour evaluations a worker runs
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

// worker is one evaluation context: the transfer functions in analysis.go
// run as its methods, reading analysis state through w.a and keeping
// everything per-evaluation — the contour and instruction being
// evaluated, work counters, the cancellation poll countdown — on the
// worker itself. Each pass drives a single worker.
type worker struct {
	a *analyzer

	cur      *MethodContour // contour being evaluated (dep registration)
	curInstr int            // flattened position of the instruction being evaluated
	work     WorkStats
	pollN    int // contour evals until the next context poll
}

func newWorker(a *analyzer) *worker {
	return &worker{a: a, curInstr: -1, pollN: 1}
}

// pollCancelled is the amortized cancellation checkpoint, called once per
// contour evaluation (the drain loops' innermost schedulable unit). With
// no cancelable context it is a single nil comparison; with one, the
// channel poll runs every cancelPollInterval evaluations.
func (w *worker) pollCancelled() bool {
	if w.a.done == nil {
		return false
	}
	w.pollN--
	if w.pollN > 0 {
		return false
	}
	w.pollN = cancelPollInterval
	return w.a.cancelled()
}

// runSweep is the naive solver: global rounds over every contour until a
// whole round changes nothing. Kept as the reference implementation
// (Options.Solver == SolverSweep) for differential testing.
func (a *analyzer) runSweep(w *worker) {
	for round := 0; round < a.opts.MaxRounds; round++ {
		w.work.Rounds++
		a.changed = false
		// The list grows while we iterate; newly created contours are
		// evaluated within the same round.
		for i := 0; i < len(a.mcList); i++ {
			if w.pollCancelled() {
				a.converged = false
				return
			}
			w.evalContour(a.mcList[i])
		}
		if !a.changed {
			return
		}
	}
	a.converged = false
}

// runWorklist drains rounds of dirty contours in ascending ID order; see
// the package comment above for why this reproduces the sweep exactly.
func (a *analyzer) runWorklist(w *worker) {
	for round := 0; round < a.opts.MaxRounds; round++ {
		w.work.Rounds++
		for i := 0; i < len(a.mcList); i++ {
			if !a.dirtyCur[i] {
				continue
			}
			if w.pollCancelled() {
				a.converged = false
				a.curIdx = -1
				return
			}
			a.dirtyCur[i] = false
			a.curIdx = i
			w.evalContour(a.mcList[i])
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
	a.converged = false
}

// A reader identifies one dependent of a VarState: one slot of one
// instruction of one method contour, packed as
//
//	contourID<<32 | (3*instrPos + slot + 1)
//
// so that zero (VarState's zero value) means "no reader" and the
// dependency maps stay pointer-free — cheap to hash and invisible to the
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
func (w *worker) use(vs *VarState) *VarState    { return w.register(vs, slotFull) }
func (w *worker) useArg(vs *VarState) *VarState { return w.register(vs, slotArgs) }
func (w *worker) useRet(vs *VarState) *VarState { return w.register(vs, slotRet) }

func (w *worker) register(vs *VarState, slot int) *VarState {
	if w.a.sweep || w.cur == nil {
		return vs
	}
	r := uint64(w.cur.ID)<<32 | uint64(numSlots*w.curInstr+slot+1)
	if vs.dep0 == r {
		return vs
	}
	if vs.dep0 == 0 {
		vs.dep0 = r
		return vs
	}
	if _, ok := vs.deps[r]; !ok {
		if vs.deps == nil {
			vs.deps = make(map[uint64]struct{}, 2)
		}
		vs.deps[r] = struct{}{}
	}
	return vs
}

// bump records that vs changed: the sweep flips the global changed bit;
// the worklist reschedules exactly the instruction slots that have read
// vs.
func (w *worker) bump(vs *VarState) {
	w.a.changed = true
	if w.a.sweep {
		return
	}
	if vs.dep0 != 0 {
		w.mark(vs.dep0)
	}
	for r := range vs.deps {
		w.mark(r)
	}
}

// mark reschedules one reading instruction slot. If the reader sits
// ahead of the in-progress scan of the contour currently being
// evaluated, setting its dirty bit is enough — this very visit will
// reach it with the change applied, exactly the in-place visibility the
// sweep has. Otherwise the reader's contour is (re-)scheduled at round
// granularity and the bit tells its next visit what to re-run.
func (w *worker) mark(r uint64) {
	a := w.a
	mc := a.mcList[r>>32]
	bit := int(uint32(r)) - 1
	mc.dirty[bit] = true
	if mc == w.cur && bit/numSlots > w.curInstr {
		return
	}
	w.enqueue(mc)
}

// enqueue schedules a contour: into the current round if it has not run
// yet this round (ID above the cursor), else into the next round. Map
// iteration order in bump never matters — marking dirty bits is
// idempotent and the drain order is always ascending ID.
func (w *worker) enqueue(mc *MethodContour) {
	a := w.a
	id := mc.ID
	if id > a.curIdx {
		if !a.dirtyCur[id] {
			a.dirtyCur[id] = true
			w.work.Enqueues++
		}
	} else if !a.dirtyNext[id] {
		a.dirtyNext[id] = true
		a.pendingNext++
		w.work.Enqueues++
	}
}

// ---- Change-tracking merges ----
//
// Every transfer function writes analysis cells through these, so that a
// cell that actually changes bumps its readers (see bump).

// merge wraps VarState.Merge with change tracking.
func (w *worker) merge(dst, src *VarState) {
	if dst.Merge(src) {
		w.bump(dst)
	}
}

// unionTS unions src's TypeSet (only) into dst, as the field/element load
// transfer functions do.
func (w *worker) unionTS(dst, src *VarState) {
	if dst.TS.Union(&src.TS) {
		w.bump(dst)
	}
}

func (w *worker) addPrim(dst *VarState, m PrimMask) {
	if dst.TS.AddPrim(m) {
		w.bump(dst)
	}
}

func (w *worker) addObj(dst *VarState, oc *ObjContour) {
	if dst.TS.AddObj(oc) {
		w.bump(dst)
	}
}

func (w *worker) addArr(dst *VarState, ac *ArrContour) {
	if dst.TS.AddArr(ac) {
		w.bump(dst)
	}
}

func (w *worker) addTag(dst *VarState, t *Tag) {
	if !w.a.opts.Tags {
		return
	}
	if dst.Tags.Add(t) {
		w.bump(dst)
	}
}
