package analysis

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"

	"objinline/internal/ir"
	"objinline/internal/lower"
)

// Solver names for Options.Solver (see solver.go for the worklist design).
const (
	// SolverWorklist is the dependency-driven worklist solver: only the
	// contours whose inputs changed are re-evaluated. The default.
	SolverWorklist = "worklist"
	// SolverSweep is the naive global re-sweep: every contour is
	// re-evaluated every round until nothing changes. Kept as the
	// reference implementation for differential testing.
	SolverSweep = "sweep"
)

// Options configures an analysis run.
type Options struct {
	// Tags enables the object-inlining use-specialization analysis: field
	// tags are tracked and contours are additionally split on tag
	// confluences. Off, the analysis is the baseline Concert type
	// inference (the paper's "without inlining" configuration).
	Tags bool
	// MaxContours bounds total method contours per pass (default 6000);
	// on overflow the selection function stops splitting (conservative).
	MaxContours int
	// TagDepth caps tag nesting before collapsing to Top (default 3).
	TagDepth int
	// Solver selects the fixpoint engine: SolverWorklist (default) or
	// SolverSweep. Both compute identical results (differentially
	// tested); the worklist does far less work than the sweep.
	Solver string
}

// maxPasses bounds the iterative refinement: a pass whose policy update
// still splits is followed by another, at most this many in all.
const maxPasses = 8

// WithDefaults returns o with zero-valued knobs replaced by their
// defaults. Analyze applies it internally; callers that key caches on
// Options should apply it too, so that an explicit default (TagDepth 3)
// and an implicit one (TagDepth 0) memoize as the same configuration.
func (o Options) WithDefaults() Options {
	if o.MaxContours == 0 {
		o.MaxContours = 6000
	}
	if o.TagDepth == 0 {
		o.TagDepth = 3
	}
	if o.Solver == "" {
		o.Solver = SolverWorklist
	}
	return o
}

// Result is the final analysis state consumed by cloning and the inlining
// decision.
type Result struct {
	Prog *ir.Program
	Opts Options

	Contours map[*ir.Func][]*MethodContour
	Mcs      []*MethodContour
	Objs     []*ObjContour
	Arrs     []*ArrContour
	Globals  []VarState

	Passes     int
	Overflowed bool
	// Work counts the solver's effort across all passes (see WorkStats).
	Work WorkStats
}

// Analyze runs the context-sensitive flow analysis to a fixpoint,
// iteratively refining contour-selection policies between passes (the
// demand-driven splitting of §3.2.1).
func Analyze(prog *ir.Program, opts Options) *Result {
	res, _ := AnalyzeContext(context.Background(), prog, opts)
	return res
}

// AnalyzeContext is Analyze with cancellation: the solvers check the
// context between contour evaluations (their innermost schedulable unit,
// polled every cancelPollInterval evaluations), so a pathological contour
// blowup stops within a few dozen microsecond-scale evaluations of the
// deadline instead of running the pass to completion. A canceled analysis
// returns a nil Result and an error wrapping ctx.Err(); a background
// context makes the checks free (a nil Done channel is never polled).
func AnalyzeContext(ctx context.Context, prog *ir.Program, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	a := &analyzer{
		prog:       prog,
		opts:       opts,
		ctx:        ctx,
		done:       ctx.Done(),
		sweep:      opts.Solver == SolverSweep,
		policies:   make(map[*ir.Func]*fnPolicy),
		classSplit: make(map[*ir.Class]bool),
		arrSplit:   make(map[int]bool),
		nInstrs:    make(map[*ir.Func]int),
		tt:         newTagTable(opts.TagDepth),
		mcs:        make(map[mcKey]*MethodContour),
		ocs:        make(map[allocKey]*ObjContour),
		acs:        make(map[allocKey]*ArrContour),
		edges:      make(map[edgeKey]*Edge),
		globals:    make([]VarState, len(prog.Globals)),
		mcSlab:     slab[MethodContour]{first: 16},
		edgeSlab:   slab[Edge]{first: 32},
		cells:      slab[VarState]{first: 256},
		args:       slab[State]{first: 128},
		bits:       slab[bool]{first: 256},
		spills:     slab[[]uint64]{first: 64},
	}
	// Every function gets a policy up front: the call transfer functions
	// read a.policies directly.
	forEachFunc(prog, func(fn *ir.Func) { a.policy(fn) })
	for pass := 1; ; pass++ {
		a.runPass()
		if a.ctxErr != nil {
			return nil, fmt.Errorf("analysis canceled in pass %d: %w", pass, a.ctxErr)
		}
		if pass >= maxPasses || !a.updatePolicies() {
			return a.result(pass), nil
		}
	}
}

// forEachFunc visits every function of the program, top-level and
// methods.
func forEachFunc(prog *ir.Program, f func(*ir.Func)) {
	for _, fn := range prog.Funcs {
		f(fn)
	}
	for _, c := range prog.Classes {
		for _, m := range c.Methods {
			f(m)
		}
	}
}

// mcKey identifies a method contour: the function plus the context key the
// selection policy produced. A comparable struct, not a formatted string —
// contour lookup is the hottest path of the analysis.
type mcKey struct {
	fn  *ir.Func
	ctx string
}

// allocKey identifies an object or array contour: the allocation site plus
// the creating method contour's in-pass ID when the site is creator-split
// (creator == -1 otherwise). The in-pass ID is a per-run handle only; the
// contour's durable identity is its intrinsic ctxHash.
type allocKey struct {
	site    int
	creator int
}

type analyzer struct {
	prog  *ir.Program
	opts  Options
	sweep bool

	// Cancellation (see AnalyzeContext). done is ctx.Done(), cached so the
	// background-context case is a single nil comparison per checkpoint;
	// ctxErr latches the first observed cancellation.
	ctx    context.Context
	done   <-chan struct{}
	ctxErr error

	// Cross-pass refinement state (monotone).
	policies   map[*ir.Func]*fnPolicy
	classSplit map[*ir.Class]bool // split object contours by creator
	arrSplit   map[int]bool       // split array contours by creator, by site UID
	nInstrs    map[*ir.Func]int   // instruction counts (immutable IR), precomputed

	// Per-pass state. resetPass clears it for the next pass, keeping
	// the storage: nothing reads a pass's state after updatePolicies,
	// and the final pass's storage goes to the Result.
	tt       *tagTable
	mcs      map[mcKey]*MethodContour
	mcList   []*MethodContour
	ocs      map[allocKey]*ObjContour
	ocList   []*ObjContour
	acs      map[allocKey]*ArrContour
	acList   []*ArrContour
	globals  []VarState
	edges    map[edgeKey]*Edge
	changed  bool
	overflow bool
	nextMC   int
	nextOC   int
	nextAC   int

	// Slabs the pass carves its method contours, edges, state cells
	// (registers, object fields), edge arguments and dirty bitmaps from
	// (see slab).
	mcSlab   slab[MethodContour]
	edgeSlab slab[Edge]
	cells    slab[VarState]
	args     slab[State]
	bits     slab[bool]
	spills   slab[[]uint64]

	// Worklist solver state (see solver.go).
	curIdx      int    // drain cursor (contour ID), or -1 outside a scan
	dirtyCur    []bool // by contour ID: scheduled for this round
	dirtyNext   []bool // by contour ID: scheduled for the next round
	pendingNext int

	// Per-evaluation state, reset by each pass.
	cur      *MethodContour // contour being evaluated (dep registration)
	curInstr int            // flattened position of the instruction being evaluated
	pollN    int            // contour evals until the next context poll
	work     WorkStats      // summed over all passes
}

type edgeKey struct {
	from  *MethodContour
	instr int
	to    *MethodContour
}

func (a *analyzer) policy(fn *ir.Func) *fnPolicy {
	p := a.policies[fn]
	if p == nil {
		p = &fnPolicy{}
		a.policies[fn] = p
	}
	return p
}

func siteUID(fn *ir.Func, in *ir.Instr) int { return fn.ID*1_000_000 + in.ID }

// Intrinsic identity hashing (FNV-1a chaining). Contour and tag keys are
// derived from these hashes instead of creation-order IDs, so the key a
// split produces — and therefore the partition itself — is independent of
// the order contours happened to be created in. See canon.go for how
// final IDs are then assigned deterministically.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashSeed(kind byte) uint64 { return (fnvOffset64 ^ uint64(kind)) * fnvPrime64 }

func hashU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime64
		x >>= 8
	}
	return h
}

func hashStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashKeyStr renders an identity hash as a compact key component.
func hashKeyStr(h uint64) string { return strconv.FormatUint(h, 36) }

func mcHash(fn *ir.Func, key string) uint64 {
	return hashStr(hashU64(hashSeed(0), uint64(fn.ID)), key)
}

// instrCount returns (memoized; the IR is immutable) the number of
// instructions in fn, which sizes per-contour dirty bitmaps.
func (a *analyzer) instrCount(fn *ir.Func) int {
	if n, ok := a.nInstrs[fn]; ok {
		return n
	}
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	a.nInstrs[fn] = n
	return n
}

func (a *analyzer) resetPass() {
	a.tt.reset()
	clear(a.mcs)
	clear(a.ocs)
	clear(a.acs)
	clear(a.edges)
	clear(a.globals)
	a.mcSlab.reset()
	a.edgeSlab.reset()
	a.cells.reset()
	a.args.reset()
	a.bits.reset()
	a.spills.reset()
	a.mcList = a.mcList[:0]
	a.ocList = a.ocList[:0]
	a.acList = a.acList[:0]
	a.overflow = false
	a.nextMC, a.nextOC, a.nextAC = 0, 0, 0
	a.curIdx = -1
	a.dirtyCur, a.dirtyNext = a.dirtyCur[:0], a.dirtyNext[:0]
	a.pendingNext = 0
	a.cur, a.curInstr, a.pollN = nil, -1, 1
}

// slab hands out slices carved from shared chunks, so a pass allocates
// a few chunks rather than one object or slice per contour, and the next
// pass reuses them. Chunk sizes double from first elements up to
// 8*first; a larger request gets its own slice.
type slab[T any] struct {
	first  int
	chunks [][]T
	next   int // chunks[:next] have been carved from
	free   []T // uncarved rest of chunks[next-1]
}

// carve returns n zeroed elements.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		size := s.first << min(s.next, 3)
		if n > s.first<<3 {
			return make([]T, n)
		}
		if s.next == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		if len(s.chunks[s.next]) < n {
			s.chunks[s.next] = make([]T, max(size, n))
		}
		s.free = s.chunks[s.next]
		s.next++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// one returns a pointer to one zeroed element.
func (s *slab[T]) one() *T { return &s.carve(1)[0] }

// reset zeroes the carved chunks and makes them available again. Every
// element carved before is invalid afterwards.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.next] {
		clear(c)
	}
	s.next, s.free = 0, nil
}

// seed creates the root contours every pass starts from.
func (a *analyzer) seed() {
	if init := a.prog.FuncNamed(lower.InitFuncName); init != nil {
		a.getMC(init, "")
	}
	if a.prog.Main != nil {
		a.getMC(a.prog.Main, "")
	}
}

// runPass analyzes the whole program to a fixpoint under the current
// contour-selection policies, then renumbers the pass's contours and tags
// canonically (canon.go).
func (a *analyzer) runPass() {
	a.resetPass()
	a.seed()
	if a.sweep {
		a.runSweep()
	} else {
		a.runWorklist()
	}
	if a.ctxErr == nil {
		a.canonicalize()
	}
}

// getMC returns (creating if needed) the contour of fn for the given
// context key.
func (a *analyzer) getMC(fn *ir.Func, key string) *MethodContour {
	if len(a.mcList) >= a.opts.MaxContours {
		a.overflow = true
		key = "" // stop splitting; merge into the base contour
	}
	id := mcKey{fn, key}
	if mc, ok := a.mcs[id]; ok {
		return mc
	}
	mc := a.mcSlab.one()
	*mc = MethodContour{ID: a.nextMC, Fn: fn, Key: key, Regs: a.cells.carve(fn.NumRegs), ctxHash: mcHash(fn, key)}
	a.nextMC++
	a.mcs[id] = mc
	a.mcList = append(a.mcList, mc)
	a.changed = true
	if !a.sweep {
		// New contours run in the current round (the sweep evaluates list
		// growth within the round; see solver.go for why order matters),
		// with every instruction initially fully dirty.
		mc.dirty = a.bits.carve(numSlots * a.instrCount(fn))
		for i := 0; i < len(mc.dirty); i += numSlots {
			mc.dirty[i] = true
		}
		a.dirtyCur = append(a.dirtyCur, true)
		a.dirtyNext = append(a.dirtyNext, false)
		a.work.Enqueues++
		if len(a.mcList) == a.opts.MaxContours {
			a.redirtyCallSites()
		}
	}
	return mc
}

// redirtyCallSites re-dirties the slotFull bit of every call instruction
// in every contour and reschedules the contours. Called once per pass, at
// the creation that fills the contour list to Options.MaxContours: from
// that point getMC coerces split keys to the base contour, and the
// coercion is driven by the contour *count* — an input no VarState
// dependency observes — so even call sites with unchanged inputs must
// re-bind. The sweep gets this for free: the filling creation set
// changed, guaranteeing every site a post-transition visit. Re-dirtying
// replays exactly those visits (ahead-of-cursor sites this round, the
// rest next round, per enqueue's routing), keeping the two solvers
// bit-identical through the overflow transition.
func (a *analyzer) redirtyCallSites() {
	for _, mc := range a.mcList {
		sched := false
		pos := 0
		for _, b := range mc.Fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod:
					mc.dirty[numSlots*pos+slotFull] = true
					// A site ahead of the in-progress scan of the contour
					// currently evaluating is reached by this very visit;
					// any other site needs its contour (re-)scheduled.
					if mc != a.cur || pos <= a.curInstr {
						sched = true
					}
				}
				pos++
			}
		}
		if sched {
			a.enqueue(mc)
		}
	}
}

func (a *analyzer) getOC(fn *ir.Func, in *ir.Instr, mc *MethodContour) *ObjContour {
	creator := -1
	key := ""
	if a.classSplit[in.Class] {
		creator = mc.ID
		key = "c" + hashKeyStr(mc.ctxHash)
	}
	id := allocKey{siteUID(fn, in), creator}
	if oc, ok := a.ocs[id]; ok {
		return oc
	}
	a.changed = true
	oc := &ObjContour{
		ID: a.nextOC, Class: in.Class, Site: in, SiteFn: fn, Key: key,
		Fields:  a.cells.carve(in.Class.NumSlots()),
		ctxHash: hashStr(hashU64(hashSeed(1), uint64(siteUID(fn, in))), key),
	}
	a.nextOC++
	a.ocs[id] = oc
	a.ocList = append(a.ocList, oc)
	return oc
}

func (a *analyzer) getAC(fn *ir.Func, in *ir.Instr, mc *MethodContour) *ArrContour {
	creator := -1
	key := ""
	if a.arrSplit[siteUID(fn, in)] {
		creator = mc.ID
		key = "c" + hashKeyStr(mc.ctxHash)
	}
	id := allocKey{siteUID(fn, in), creator}
	if ac, ok := a.acs[id]; ok {
		return ac
	}
	a.changed = true
	ac := &ArrContour{
		ID: a.nextAC, Site: in, SiteFn: fn, Key: key,
		ctxHash: hashStr(hashU64(hashSeed(2), uint64(siteUID(fn, in))), key),
	}
	a.nextAC++
	a.acs[id] = ac
	a.acList = append(a.acList, ac)
	return ac
}

// siteKey builds the caller-context component of a callee contour key,
// bounded in length so recursion terminates (deep chains hash-merge).
// Keys are memoized per call site on the caller contour: they are
// recomputed on every re-evaluation of a call instruction, the inputs
// (the caller's own key and the site) are immutable within a pass.
func (a *analyzer) siteKey(caller *MethodContour, in *ir.Instr) string {
	if k, ok := caller.siteKeyMemo[in.ID]; ok {
		return k
	}
	k := computeSiteKey(caller.Fn.ID, caller.Key, in.ID)
	if caller.siteKeyMemo == nil {
		caller.siteKeyMemo = make(map[int]string)
	}
	caller.siteKeyMemo[in.ID] = k
	return k
}

// computeSiteKey is the uncached key construction (exercised directly by
// benchmarks; callers go through the memoizing siteKey).
func computeSiteKey(fnID int, callerKey string, instrID int) string {
	k := "s" + strconv.Itoa(fnID) + "." + strconv.Itoa(instrID)
	if callerKey != "" {
		k = callerKey + "/" + k
	}
	if len(k) > 72 {
		h := fnv.New32a()
		h.Write([]byte(k))
		k = fmt.Sprintf("h%x", h.Sum32())
	}
	return k
}

// evalContour applies instruction transfer functions in flattened program
// order. The sweep (mc.dirty == nil) applies every one in full; the
// worklist applies only the dirty slots — a fully dirty instruction
// re-runs whole (subsuming its partial slots), an instruction dirty only
// in a data slot gets the matching partial re-merge, and a clean
// instruction is skipped. Skipped work has unchanged inputs, so skipping
// it is a no-op (see solver.go).
func (a *analyzer) evalContour(mc *MethodContour) {
	a.cur = mc
	a.work.ContourEvals++
	fn := mc.Fn
	if mc.dirty == nil {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				a.evalInstr(mc, fn, in)
			}
		}
	} else {
		pos := 0
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				base := numSlots * pos
				if mc.dirty[base] {
					mc.dirty[base] = false
					mc.dirty[base+slotArgs] = false
					mc.dirty[base+slotRet] = false
					a.curInstr = pos
					a.evalInstr(mc, fn, in)
				} else {
					// Partial order mirrors the full evaluation: argument
					// merges precede the return merge.
					if mc.dirty[base+slotArgs] {
						mc.dirty[base+slotArgs] = false
						a.curInstr = pos
						a.evalArgs(mc, in)
					}
					if mc.dirty[base+slotRet] {
						mc.dirty[base+slotRet] = false
						a.curInstr = pos
						a.evalRet(mc, in)
					}
				}
				pos++
			}
		}
		a.curInstr = -1
	}
	a.cur = nil
}

// evalArgs is the slotArgs partial evaluation: one of the instruction's
// data inputs changed, while its control inputs (receiver, base,
// operands) did not — so the bindings the full transfer function would
// enumerate are exactly the ones already recorded, and re-merging the
// data through them — in the full evaluation's enumeration order (the
// sorted contour lists for loads, calleeOrder for calls; see solver.go
// on why order matters) — reproduces the full evaluation's effect on
// those cells. Only instructions that register slotArgs readers get
// here.
func (a *analyzer) evalArgs(mc *MethodContour, in *ir.Instr) {
	a.work.PartialEvals++
	switch in.Op {
	case ir.OpGetField:
		base := mc.Reg(in.Args[0]) // registered slotFull by the full eval
		dst := mc.Reg(in.Dst)
		for _, oc := range base.TS.ObjList() {
			fs := oc.FieldState(in.Field.Name)
			if fs == nil {
				continue
			}
			a.useArg(fs)
			a.unionTS(dst, fs)
		}
	case ir.OpArrGet:
		base := mc.Reg(in.Args[0])
		dst := mc.Reg(in.Dst)
		for _, ac := range base.TS.ArrList() {
			a.useArg(&ac.Elem)
			a.unionTS(dst, &ac.Elem)
		}
	case ir.OpCall, ir.OpCallStatic, ir.OpCallMethod:
		// The self argument (when present) derives from the receiver — a
		// slotFull input — so it is unchanged here and skipped.
		start := 0
		if in.Op != ir.OpCall {
			start = 1
		}
		for _, cmc := range mc.calleeOrder[in.ID] {
			e := a.edge(mc, in, cmc)
			for i := start; i < len(in.Args); i++ {
				src := a.useArg(mc.Reg(in.Args[i]))
				a.merge(cmc.Reg(cmc.Fn.ParamReg(i-start)), src)
				e.Args[i].Merge(&src.State)
			}
		}
	}
}

// evalRet is the slotRet partial evaluation: a callee's return cell
// changed, so it is re-merged into the call's destination. The receiver
// is unchanged (a receiver change dirties slotFull instead), so the
// callees — and the order a full re-run would merge their returns in —
// are exactly those calleeOrder recorded at the site's last full
// evaluation.
func (a *analyzer) evalRet(mc *MethodContour, in *ir.Instr) {
	a.work.PartialEvals++
	if in.Dst == ir.NoReg {
		return
	}
	dst := mc.Reg(in.Dst)
	for _, cmc := range mc.calleeOrder[in.ID] {
		a.merge(dst, a.useRet(&cmc.Ret))
	}
}

func (a *analyzer) evalInstr(mc *MethodContour, fn *ir.Func, in *ir.Instr) {
	a.work.InstrEvals++
	reg := func(r ir.Reg) *VarState { return mc.Reg(r) }
	// use marks a register as an input of this instruction's evaluation
	// before reading it (dependency registration; see solver.go).
	use := func(r ir.Reg) *VarState { return a.use(mc.Reg(r)) }
	switch in.Op {
	case ir.OpConstInt:
		a.addPrim(reg(in.Dst), PInt)
	case ir.OpConstFloat:
		a.addPrim(reg(in.Dst), PFloat)
	case ir.OpConstStr:
		a.addPrim(reg(in.Dst), PStr)
	case ir.OpConstBool:
		a.addPrim(reg(in.Dst), PBool)
	case ir.OpConstNil:
		a.addPrim(reg(in.Dst), PNil)
	case ir.OpMove:
		a.merge(reg(in.Dst), use(in.Args[0]))
	case ir.OpBin:
		a.evalBin(mc, in)
	case ir.OpUn:
		x := use(in.Args[0])
		if ir.UnOp(in.Aux) == ir.UnNot {
			a.addPrim(reg(in.Dst), PBool)
		} else {
			a.addPrim(reg(in.Dst), x.TS.Prims&(PInt|PFloat))
		}
	case ir.OpNewObject:
		oc := a.getOC(fn, in, mc)
		if mc.NewObjs == nil {
			mc.NewObjs = make(map[int]*ObjContour)
		}
		mc.NewObjs[in.ID] = oc
		dst := reg(in.Dst)
		a.addObj(dst, oc)
		a.addTag(dst, a.tt.noField)
	case ir.OpNewArray:
		ac := a.getAC(fn, in, mc)
		if mc.NewArrs == nil {
			mc.NewArrs = make(map[int]*ArrContour)
		}
		mc.NewArrs[in.ID] = ac
		dst := reg(in.Dst)
		a.addArr(dst, ac)
		a.addTag(dst, a.tt.noField)
	case ir.OpGetField:
		base := use(in.Args[0])
		dst := reg(in.Dst)
		for _, oc := range base.TS.ObjList() {
			slot := oc.fieldSlot(in.Field.Name)
			if slot < 0 {
				continue
			}
			fs := &oc.Fields[slot]
			a.useArg(fs)
			// Types flow through the field; the loaded value is tagged
			// MakeTag(f, tag(o)) per §4.1. Content provenance is *not*
			// unioned in: it stays recorded on the field state and is
			// resolved on demand (Resolver), exactly as the paper's
			// field-confluence partitions associate a content tag with
			// each split object contour.
			a.unionTS(dst, fs)
			if a.opts.Tags {
				for _, t := range base.Tags.List() {
					a.addTag(dst, a.tt.makeObj(oc, slot, t))
				}
			}
		}
	case ir.OpSetField:
		base := use(in.Args[0])
		val := use(in.Args[1])
		for _, oc := range base.TS.ObjList() {
			fs := oc.FieldState(in.Field.Name)
			if fs == nil {
				continue
			}
			a.merge(fs, val)
		}
	case ir.OpArrGet:
		base := use(in.Args[0])
		dst := reg(in.Dst)
		for _, ac := range base.TS.ArrList() {
			a.useArg(&ac.Elem)
			a.unionTS(dst, &ac.Elem)
			if a.opts.Tags {
				for _, t := range base.Tags.List() {
					a.addTag(dst, a.tt.makeArr(ac, t))
				}
			}
		}
	case ir.OpArrSet:
		base := use(in.Args[0])
		val := use(in.Args[2])
		for _, ac := range base.TS.ArrList() {
			a.merge(&ac.Elem, val)
		}
	case ir.OpCall:
		if !a.sweep {
			mc.resetCalleeOrder(in.ID)
		}
		a.bindTopLevel(mc, fn, in)
	case ir.OpCallStatic:
		if !a.sweep {
			mc.resetCalleeOrder(in.ID)
		}
		a.bindReceiverCall(mc, fn, in, in.Callee)
	case ir.OpCallMethod:
		if !a.sweep {
			mc.resetCalleeOrder(in.ID)
		}
		a.bindReceiverCall(mc, fn, in, nil)
	case ir.OpGetGlobal:
		a.merge(reg(in.Dst), a.use(&a.globals[in.Global]))
	case ir.OpSetGlobal:
		a.merge(&a.globals[in.Global], use(in.Args[0]))
	case ir.OpBuiltin:
		a.evalBuiltin(mc, in)
	case ir.OpReturn:
		if len(in.Args) > 0 {
			a.merge(&mc.Ret, use(in.Args[0]))
		}
	case ir.OpJump, ir.OpBranch, ir.OpTrap:
		// No value flow.
	case ir.OpNewArrayInl, ir.OpArrInterior:
		// Post-transformation ops; the analysis runs before the transform.
	}
}

func (a *analyzer) evalBin(mc *MethodContour, in *ir.Instr) {
	x, y := a.use(mc.Reg(in.Args[0])), a.use(mc.Reg(in.Args[1]))
	dst := mc.Reg(in.Dst)
	switch ir.BinOp(in.Aux) {
	case ir.BinEq, ir.BinNe, ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe:
		a.addPrim(dst, PBool)
	default:
		xp, yp := x.TS.Prims, y.TS.Prims
		var m PrimMask
		if xp&PInt != 0 && yp&PInt != 0 {
			m |= PInt
		}
		if (xp|yp)&PFloat != 0 {
			m |= PFloat
		}
		if xp&PStr != 0 && yp&PStr != 0 && ir.BinOp(in.Aux) == ir.BinAdd {
			m |= PStr
		}
		a.addPrim(dst, m)
	}
}

func (a *analyzer) evalBuiltin(mc *MethodContour, in *ir.Instr) {
	dst := mc.Reg(in.Dst)
	switch ir.Builtin(in.Aux) {
	case ir.BPrint, ir.BAssert:
		a.addPrim(dst, PNil)
	case ir.BSqrt, ir.BFloor, ir.BFloatOf:
		a.addPrim(dst, PFloat)
	case ir.BLen, ir.BIntOf, ir.BXor:
		a.addPrim(dst, PInt)
	case ir.BStrCat:
		a.addPrim(dst, PStr)
	case ir.BAbs:
		a.addPrim(dst, a.use(mc.Reg(in.Args[0])).TS.Prims&(PInt|PFloat))
	case ir.BMin, ir.BMax:
		m := (a.use(mc.Reg(in.Args[0])).TS.Prims | a.use(mc.Reg(in.Args[1])).TS.Prims) & (PInt | PFloat)
		a.addPrim(dst, m)
	}
}

// bindTopLevel handles calls to top-level functions.
func (a *analyzer) bindTopLevel(mc *MethodContour, fn *ir.Func, in *ir.Instr) {
	callee := in.Callee
	key := ""
	if a.policies[callee].splitBySite {
		key = a.siteKey(mc, in)
	}
	cmc := a.getMC(callee, key)
	if mc.addCallee(in.ID, cmc) {
		a.changed = true
	}
	if !a.sweep {
		mc.noteCallee(in.ID, cmc)
	}
	e := a.edge(mc, in, cmc)
	for i, r := range in.Args {
		src := a.useArg(mc.Reg(r))
		a.merge(cmc.Reg(callee.ParamReg(i)), src)
		e.Args[i].Merge(&src.State)
	}
	if in.Dst != ir.NoReg {
		a.merge(mc.Reg(in.Dst), a.useRet(&cmc.Ret))
	}
}

// bindReceiverCall handles method calls: dynamic dispatches (fixed == nil,
// targets resolved per receiver contour) and devirtualized/constructor
// calls (fixed != nil). Receiver-based contour selection restricts the
// callee's self state to the enumerated (object contour, tag) pair, which
// is what makes the selection monotone within a pass.
func (a *analyzer) bindReceiverCall(mc *MethodContour, fn *ir.Func, in *ir.Instr, fixed *ir.Func) {
	recv := a.use(mc.Reg(in.Args[0]))
	for _, oc := range recv.TS.ObjList() {
		target := fixed
		if target == nil {
			target = oc.Class.LookupMethod(in.Method)
			if target == nil {
				continue // runtime error path
			}
			mc.addTarget(in.ID, target)
		}
		if target.NumParams != len(in.Args)-1 {
			continue // runtime arity error path
		}
		pol := a.policies[target]
		baseKey := ""
		if pol.splitBySite {
			baseKey = a.siteKey(mc, in)
		}
		if pol.splitByRecvOC {
			baseKey += "|o" + hashKeyStr(oc.ctxHash)
		}
		if pol.splitByRecvTag && a.opts.Tags && recv.Tags.Len() > 0 {
			for _, t := range recv.Tags.List() {
				key := baseKey + "|t" + hashKeyStr(t.uid)
				self := VarState{}
				self.TS.AddObj(oc)
				self.Tags.Add(t)
				a.bindMethod(mc, in, target, key, &self)
			}
			continue
		}
		self := VarState{}
		self.TS.AddObj(oc)
		self.Tags.Union(&recv.Tags)
		a.bindMethod(mc, in, target, baseKey, &self)
	}
}

func (a *analyzer) bindMethod(mc *MethodContour, in *ir.Instr, target *ir.Func, key string, self *VarState) {
	cmc := a.getMC(target, key)
	if mc.addCallee(in.ID, cmc) {
		a.changed = true
	}
	if !a.sweep {
		mc.noteCallee(in.ID, cmc)
	}
	e := a.edge(mc, in, cmc)
	a.merge(cmc.Reg(0), self)
	e.Args[0].Merge(&self.State)
	for i := 1; i < len(in.Args); i++ {
		src := a.useArg(mc.Reg(in.Args[i]))
		a.merge(cmc.Reg(target.ParamReg(i-1)), src)
		e.Args[i].Merge(&src.State)
	}
	if in.Dst != ir.NoReg {
		a.merge(mc.Reg(in.Dst), a.useRet(&cmc.Ret))
	}
}

func (a *analyzer) edge(from *MethodContour, in *ir.Instr, to *MethodContour) *Edge {
	k := edgeKey{from: from, instr: in.ID, to: to}
	if e, ok := a.edges[k]; ok {
		return e
	}
	e := a.edgeSlab.one()
	*e = Edge{From: from, Instr: in, To: to, Args: a.args.carve(len(in.Args))}
	a.edges[k] = e
	to.InEdges = append(to.InEdges, e)
	return e
}

func (a *analyzer) result(passes int) *Result {
	res := &Result{
		Prog:       a.prog,
		Opts:       a.opts,
		Contours:   make(map[*ir.Func][]*MethodContour),
		Mcs:        a.mcList,
		Objs:       a.ocList,
		Arrs:       a.acList,
		Globals:    a.globals,
		Passes:     passes,
		Overflowed: a.overflow,
		Work:       a.work,
	}
	for _, mc := range a.mcList {
		res.Contours[mc.Fn] = append(res.Contours[mc.Fn], mc)
	}
	return res
}
