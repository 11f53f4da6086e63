package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"objinline/internal/cachesim"
	"objinline/internal/ir"
	"objinline/internal/lang/source"
	"objinline/internal/lower"
	"objinline/internal/trace"
)

// Options configures a Machine.
type Options struct {
	Out      io.Writer        // print target; defaults to io.Discard
	Cache    *cachesim.Config // nil disables the cache model (hits assumed)
	MaxSteps uint64           // 0 means the default limit
	Trace    *trace.Sink      // optional phase-event sink; nil records nothing
	// Profile, when non-nil, attributes allocations, field traffic, and
	// cache misses to allocation sites and Class.field paths. A nil
	// profile costs nothing (the hooks are nil-receiver no-ops).
	Profile *Profile
}

// DefaultMaxSteps bounds runaway programs.
const DefaultMaxSteps = 4_000_000_000

// Machine executes one IR program.
type Machine struct {
	prog    *ir.Program
	out     io.Writer
	cache   *cachesim.Cache
	maxStep uint64

	globals []Value
	// counts holds the run's counters. The step loop charges only
	// CostEvents and the counters no dimension mirrors; counters() derives
	// Cycles and the rest when the run ends.
	counts Counters
	// nextPoll is the instruction count at which the step loop next calls
	// poll: the next multiple of cancelCheckMask+1, or the first count past
	// the step limit if that comes sooner.
	nextPoll uint64
	stack    []Value // register stack: each activation claims a window
	sp       int     // first free slot of stack
	depth    int     // active activations
	nextAdr  uint64
	stackAdr uint64

	// objChunk and slotChunk are the unused tails of the current chunks
	// allocObject carves Objects and their slots from.
	objChunk  []Object
	slotChunk []Value

	tr   *trace.Sink
	prof *Profile

	// Cancellation state for RunContext: done is ctx.Done(), cached so a
	// background context costs one nil comparison per checked instruction.
	ctx  context.Context
	done <-chan struct{}

	slotMaps map[*ir.Class]map[string]int
}

// maxCallDepth bounds the number of active activations, so runaway
// recursion ends in a RuntimeError instead of exhausting the Go stack
// that exec recurses on (about 0.6 KB of it per activation, so some 6 MB
// at the bound). The deepest run among the benchmarks, the examples and
// the generated test programs reaches 7 activations.
const maxCallDepth = 10_000

// An array may have at most maxArrayLength elements, and an inlined
// array at most maxArraySlots slots (its length times its stride, tested
// without overflow). A larger request is the runtime error "array length
// N out of range" rather than a Go allocation that panics. The length
// bound holds in every mode, so the error does not depend on inlining;
// the slot bound only keeps a stride of more than 256 slots from
// overflowing Go's allocator. The emitted runtime
// (internal/emit/runtime.go) applies both with the same message. Below
// them a request can still exhaust memory: bounding what one run may
// allocate in total is a separate matter.
const (
	maxArrayLength = 1 << 32
	maxArraySlots  = 1 << 40
)

// cancelCheckMask throttles the step loop's context polling: the Done
// channel is selected once every (mask+1) instructions, bounding both the
// polling overhead and how far past a deadline a runaway program can run
// (a few thousand interpreted instructions — microseconds).
const cancelCheckMask = 0x3FF

// Chunk sizes for allocObject. Go 1.24 prefixes every pointer-holding
// allocation over 512 bytes with an 8-byte malloc header, so each chunk is
// sized to fill its size class with that header included: 255 Values are
// 8,160 bytes (size class 8,192) and 63 48-byte Objects are 3,024 bytes
// (size class 3,072). 256 Values would land in the 9,472-byte class.
const (
	chunkValues  = 255
	chunkObjects = 63
)

// New prepares a machine for prog.
func New(prog *ir.Program, opts Options) *Machine {
	m := &Machine{
		prog:     prog,
		out:      opts.Out,
		maxStep:  opts.MaxSteps,
		globals:  make([]Value, len(prog.Globals)),
		nextAdr:  binBytes, // bin-aligned; keep address 0 unused
		stackAdr: stackBase,
		tr:       opts.Trace,
		prof:     opts.Profile,
		slotMaps: make(map[*ir.Class]map[string]int),
	}
	if m.out == nil {
		m.out = io.Discard
	}
	if opts.Cache != nil {
		m.cache = cachesim.New(*opts.Cache)
	}
	if m.maxStep == 0 {
		m.maxStep = DefaultMaxSteps
	}
	return m
}

// counters finalizes the run's counters and returns them. The step loop
// counts each event once, on its cost dimension; the counters that mirror
// one dimension and Cycles, the dot product of CostEvents and
// DefaultCostModel, are derived here.
func (m *Machine) counters() Counters {
	c := &m.counts
	e := &c.CostEvents
	c.Instructions = e[DimBase]
	c.Calls = e[DimCallFrame]
	c.StaticCalls = e[DimStaticCall]
	c.Dispatches = e[DimDispatch]
	c.Builtins = e[DimBuiltin]
	c.StackAllocated = e[DimStackAlloc]
	c.DynFieldLookups = e[DimDynFieldExtra]
	c.CacheMisses = e[DimCacheMiss]
	if m.cache != nil {
		// Without a cache every access is charged as a hit, but none is
		// simulated, so CacheHits stays 0.
		c.CacheHits = e[DimCacheHit]
	}
	c.Cycles = c.CyclesUnder(&DefaultCostModel)
	return *c
}

// RuntimeError is a Mini-ICC runtime failure with a source position.
type RuntimeError struct {
	Pos source.Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error at %s: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

type vmPanic struct{ err *RuntimeError }

// cancelPanic unwinds the step loop when the run context is canceled; the
// carried error wraps ctx.Err() so callers can match it with errors.Is.
type cancelPanic struct{ err error }

func (m *Machine) fail(pos source.Pos, format string, args ...any) {
	panic(vmPanic{&RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}})
}

// Run executes $init (if present) and then main, returning the accumulated
// counters.
func (m *Machine) Run() (Counters, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cancellation: the step loop polls the context
// every few thousand instructions, so an infinite loop (or any runaway
// program) returns an error wrapping ctx.Err() within microseconds of the
// deadline instead of running to the step limit. The counters accumulated
// up to the cancellation are returned alongside the error.
func (m *Machine) RunContext(ctx context.Context) (c Counters, err error) {
	m.ctx = ctx
	m.done = ctx.Done()
	sp := m.tr.Start(trace.PhaseRun)
	defer func() {
		// Every return, failure and cancellation included, hands back the
		// finalized counters.
		c = m.counters()
		sp.Counter("instructions", int64(c.Instructions))
		sp.Counter("cycles", c.Cycles)
		sp.Counter("cache-misses", int64(c.CacheMisses))
		sp.End()
		m.prof.finish(m.nextAdr - binBytes)
	}()
	defer func() {
		if r := recover(); r != nil {
			switch p := r.(type) {
			case vmPanic:
				err = p.err
			case cancelPanic:
				err = p.err
			default:
				panic(r)
			}
		}
	}()
	if m.prog.Main == nil {
		return c, errors.New("vm: program has no main")
	}
	// The step loop only polls every cancelCheckMask+1 instructions, so a
	// context that is already dead would let a short program run to
	// completion; check once up front.
	if err := ctx.Err(); err != nil {
		return c, fmt.Errorf("vm: execution canceled: %w", err)
	}
	m.setNextPoll()
	if init := m.prog.FuncNamed(lower.InitFuncName); init != nil {
		m.exec(init, nil, nil)
	}
	m.exec(m.prog.Main, nil, nil)
	return c, nil
}

// poll runs when the instruction count reaches nextPoll. It fails the
// run at the first instruction past the step limit and selects on the
// context's Done channel every cancelCheckMask+1 instructions.
func (m *Machine) poll(in *ir.Instr) {
	n := m.counts.CostEvents[DimBase]
	if n > m.maxStep {
		m.fail(in.Pos, "step limit exceeded (%d)", m.maxStep)
	}
	if m.done != nil && n&cancelCheckMask == 0 {
		select {
		case <-m.done:
			panic(cancelPanic{fmt.Errorf("vm: execution canceled at %s: %w", in.Pos, m.ctx.Err())})
		default:
		}
	}
	m.setNextPoll()
}

// setNextPoll sets nextPoll from the current instruction count.
func (m *Machine) setNextPoll() {
	m.nextPoll = (m.counts.CostEvents[DimBase] | cancelCheckMask) + 1
	if m.maxStep < m.nextPoll {
		m.nextPoll = m.maxStep + 1
	}
}

// charge records n events on cost dimension d.
func (m *Machine) charge(d CostDim, n uint64) {
	m.counts.CostEvents[d] += n
}

// mem simulates one memory access at addr, charges its cost, and reports
// whether the access missed (for the profiler's attribution).
func (m *Machine) mem(addr uint64) bool {
	if m.cache == nil || m.cache.Access(addr) {
		m.charge(DimCacheHit, 1)
		return false
	}
	m.charge(DimCacheMiss, 1)
	return true
}

func (m *Machine) slotByName(c *ir.Class, name string) (int, bool) {
	sm := m.slotMaps[c]
	if sm == nil {
		sm = make(map[string]int, len(c.Fields))
		for _, f := range c.Fields {
			sm[f.Name] = f.Slot
		}
		m.slotMaps[c] = sm
	}
	s, ok := sm[name]
	return s, ok
}

// allocObject creates a heap object of class c with nil slots. Stacked
// allocations are the inlining transformation's elided temporaries: their
// contents are copied into a container and the original dies, so they are
// charged only a cheap stack/arena cost (DESIGN.md §2).
func (m *Machine) allocObject(in *ir.Instr, c *ir.Class, stacked bool) *Object {
	n := c.NumSlots()
	o := m.newObject(c, n)
	if stacked {
		// Elided temporaries live on a hot stack page: their addresses
		// cycle within a small window instead of consuming heap address
		// space (they are dead after the inlining copy).
		size := uint64(headerBytes + n*slotBytes)
		if m.stackAdr+size > stackBase+stackWindow {
			m.stackAdr = stackBase
		}
		o.Addr = m.stackAdr
		m.stackAdr += size
		m.charge(DimStackAlloc, 1)
		m.prof.noteObjAlloc(in, o, true, 0)
		return o
	}
	o.Addr = m.nextAdr
	size := padAlloc(uint64(headerBytes + n*slotBytes))
	m.nextAdr += size
	m.counts.ObjectsAllocated++
	m.counts.SlotsAllocated += uint64(n)
	m.counts.BytesAllocated += size
	m.charge(DimAllocBase, 1)
	m.charge(DimAllocPerSlot, uint64(n))
	m.prof.noteObjAlloc(in, o, false, size)
	return o
}

// newObject carves an Object of class c and its n nil slots from the
// machine's chunks, starting a new chunk when the current one is used up.
// An object with more slots than a chunk holds gets its own slice.
func (m *Machine) newObject(c *ir.Class, n int) *Object {
	if len(m.objChunk) == 0 {
		m.objChunk = make([]Object, chunkObjects)
	}
	o := &m.objChunk[0]
	m.objChunk = m.objChunk[1:]
	o.Class = c
	if n > chunkValues {
		o.Slots = make([]Value, n)
		return o
	}
	if n > len(m.slotChunk) {
		m.slotChunk = make([]Value, chunkValues)
	}
	o.Slots = m.slotChunk[:n:n]
	m.slotChunk = m.slotChunk[n:]
	return o
}

// allocArray allocates an array of n elements, each stride slots wide
// when the array is inlined (stride 0 for a plain array), failing the
// run when n is negative or out of range (see maxArrayLength).
func (m *Machine) allocArray(in *ir.Instr, n int64, stride int, parallel bool, elem *ir.Class) *Array {
	if n < 0 {
		m.fail(in.Pos, "negative array length %d", n)
	}
	if n > maxArrayLength || stride > 0 && n > maxArraySlots/int64(stride) {
		m.fail(in.Pos, "array length %d out of range", n)
	}
	length := int(n)
	slots := length
	if stride > 0 {
		slots = length * stride
	}
	a := &Array{Length: length, Stride: stride, Class: elem, Addr: m.nextAdr}
	if parallel {
		a.Cols = make([][]Value, stride)
		for i := range a.Cols {
			a.Cols[i] = make([]Value, length)
		}
	} else {
		a.Elems = make([]Value, slots)
	}
	size := padAlloc(uint64(headerBytes + slots*slotBytes))
	m.nextAdr += size
	m.counts.ArraysAllocated++
	m.counts.SlotsAllocated += uint64(slots)
	m.counts.BytesAllocated += size
	m.charge(DimAllocBase, 1)
	m.charge(DimAllocPerSlot, uint64(slots))
	m.prof.noteArrAlloc(in, a, slots, size)
	return a
}

// exec runs one activation of fn and returns its result. The activation
// claims the next fn.NumRegs slots of the register stack and receives the
// caller's registers named by call.Args as its leading registers; call is
// nil for the top-level activations, which take no arguments.
func (m *Machine) exec(fn *ir.Func, call *ir.Instr, caller []Value) Value {
	if m.depth == maxCallDepth {
		m.fail(call.Pos, "call depth exceeded (%d) in %s", maxCallDepth, fn.FullName())
	}
	m.charge(DimCallFrame, 1)
	base, top := m.sp, m.sp+fn.NumRegs
	if top > len(m.stack) {
		// Active frames keep their slices of the old array, so the new
		// one needs none of its contents.
		m.stack = make([]Value, max(2*len(m.stack), top))
	}
	regs := m.stack[base:top:top]
	clear(regs)
	if call != nil {
		// Lowering rejects a call whose argument count differs from the
		// callee's parameters, and OpCallMethod checks it before the call.
		for i, a := range call.Args {
			regs[i] = caller[a]
		}
	}
	m.sp, m.depth = top, m.depth+1
	blk := fn.Blocks[0]
	ip := 0
	for {
		if ip >= len(blk.Instrs) {
			m.fail(source.Pos{}, "fell off block b%d in %s", blk.ID, fn.FullName())
		}
		in := blk.Instrs[ip]
		ip++
		m.counts.CostEvents[DimBase]++
		if m.counts.CostEvents[DimBase] >= m.nextPoll {
			m.poll(in)
		}

		switch in.Op {
		case ir.OpConstInt:
			regs[in.Dst] = IntValue(in.Aux)
		case ir.OpConstFloat:
			regs[in.Dst] = FloatValue(in.F)
		case ir.OpConstStr:
			regs[in.Dst] = strRef(&in.S)
		case ir.OpConstBool:
			regs[in.Dst] = BoolValue(in.Aux != 0)
		case ir.OpConstNil:
			regs[in.Dst] = NilValue()
		case ir.OpMove:
			regs[in.Dst] = regs[in.Args[0]]
		case ir.OpBin:
			regs[in.Dst] = m.binop(in, &regs[in.Args[0]], &regs[in.Args[1]])
		case ir.OpUn:
			regs[in.Dst] = m.unop(in, regs[in.Args[0]])
		case ir.OpNewObject:
			regs[in.Dst] = ObjValue(m.allocObject(in, in.Class, in.Aux == 1))
		case ir.OpNewArray:
			n := m.wantInt(in, regs[in.Args[0]])
			regs[in.Dst] = ArrValue(m.allocArray(in, n, 0, false, nil))
		case ir.OpNewArrayInl:
			n := m.wantInt(in, regs[in.Args[0]])
			regs[in.Dst] = ArrValue(m.allocArray(in, n, in.Class.NumSlots(), in.Aux == 1, in.Class))
		case ir.OpGetField:
			regs[in.Dst] = m.getField(in, regs[in.Args[0]])
		case ir.OpSetField:
			m.setField(in, regs[in.Args[0]], regs[in.Args[1]])
		case ir.OpArrGet:
			regs[in.Dst] = m.arrGet(in, regs[in.Args[0]], regs[in.Args[1]])
		case ir.OpArrSet:
			m.arrSet(in, regs[in.Args[0]], regs[in.Args[1]], regs[in.Args[2]])
		case ir.OpArrInterior:
			regs[in.Dst] = m.arrInterior(in, regs[in.Args[0]], regs[in.Args[1]])
		case ir.OpCall, ir.OpCallStatic:
			m.charge(DimStaticCall, 1)
			regs[in.Dst] = m.exec(in.Callee, in, regs)
		case ir.OpCallMethod:
			recv := regs[in.Args[0]]
			if recv.kind != KObj {
				m.fail(in.Pos, "method %s called on %s value", in.Method, recv.kind)
			}
			obj := recv.Obj()
			target := obj.Class.LookupMethod(in.Method)
			if target == nil {
				m.fail(in.Pos, "class %s has no method %s", obj.Class.Name, in.Method)
			}
			if target.NumParams != len(in.Args)-1 {
				m.fail(in.Pos, "%s takes %d arguments, got %d", target.FullName(), target.NumParams, len(in.Args)-1)
			}
			m.charge(DimDispatch, 1)
			// Touch the object header (the class pointer read the lookup
			// needs).
			m.prof.noteDispatch(m.mem(obj.Addr))
			regs[in.Dst] = m.exec(target, in, regs)
		case ir.OpGetGlobal:
			regs[in.Dst] = m.globals[in.Global]
		case ir.OpSetGlobal:
			m.globals[in.Global] = regs[in.Args[0]]
		case ir.OpBuiltin:
			regs[in.Dst] = m.builtin(in, regs)
		case ir.OpJump:
			blk = fn.Blocks[in.Target]
			ip = 0
		case ir.OpBranch:
			if regs[in.Args[0]].Truthy() {
				blk = fn.Blocks[in.Target]
			} else {
				blk = fn.Blocks[in.Else]
			}
			ip = 0
		case ir.OpReturn:
			var ret Value
			if len(in.Args) > 0 {
				ret = regs[in.Args[0]]
			}
			m.sp, m.depth = base, m.depth-1
			return ret
		case ir.OpTrap:
			m.fail(in.Pos, "%s", in.S)
		default:
			m.fail(in.Pos, "unknown op %v", in.Op)
		}
	}
}

func (m *Machine) wantInt(in *ir.Instr, v Value) int64 {
	if v.kind != KInt {
		m.fail(in.Pos, "expected int, got %s", v.kind)
	}
	return v.Int()
}

// getField loads a field from an object or interior reference.
func (m *Machine) getField(in *ir.Instr, recv Value) Value {
	m.counts.Dereferences++
	switch recv.kind {
	case KObj:
		o := recv.Obj()
		slot := m.resolveSlot(in, o.Class)
		m.charge(DimFieldAccess, 1)
		miss := m.mem(o.SlotAddr(slot))
		m.prof.noteFieldAccess(o, slot, false, miss)
		return o.Slots[slot]
	case KInterior:
		rel := in.Field.Slot
		if rel < 0 || in.Field.Owner != nil {
			m.fail(in.Pos, "unspecialized field access %q on interior reference", in.Field.Name)
		}
		m.charge(DimFieldAccess, 1)
		a, base := recv.Arr(), recv.Base()
		if a.Parallel() {
			m.prof.noteElemAccess(a, m.mem(a.ColAddr(rel, base)))
			return a.Cols[rel][base]
		}
		m.prof.noteElemAccess(a, m.mem(a.SlotAddr(base+rel)))
		return a.Elems[base+rel]
	case KNil:
		m.fail(in.Pos, "field %s of nil", in.Field.Name)
	}
	m.fail(in.Pos, "field %s of %s value", in.Field.Name, recv.kind)
	return Value{}
}

func (m *Machine) setField(in *ir.Instr, recv, v Value) {
	m.counts.Dereferences++
	switch recv.kind {
	case KObj:
		o := recv.Obj()
		slot := m.resolveSlot(in, o.Class)
		m.charge(DimFieldAccess, 1)
		miss := m.mem(o.SlotAddr(slot))
		m.prof.noteFieldAccess(o, slot, true, miss)
		o.Slots[slot] = v
		return
	case KInterior:
		rel := in.Field.Slot
		if rel < 0 || in.Field.Owner != nil {
			m.fail(in.Pos, "unspecialized field store %q on interior reference", in.Field.Name)
		}
		m.charge(DimFieldAccess, 1)
		a, base := recv.Arr(), recv.Base()
		if a.Parallel() {
			m.prof.noteElemAccess(a, m.mem(a.ColAddr(rel, base)))
			a.Cols[rel][base] = v
			return
		}
		m.prof.noteElemAccess(a, m.mem(a.SlotAddr(base+rel)))
		a.Elems[base+rel] = v
		return
	case KNil:
		m.fail(in.Pos, "store to field %s of nil", in.Field.Name)
	}
	m.fail(in.Pos, "store to field %s of %s value", in.Field.Name, recv.kind)
}

// resolveSlot maps the instruction's field reference to a slot of class c.
// Slot-bound references (the optimizer's work) go straight to the slot;
// name-only references pay the dynamic lookup cost of the uniform model.
func (m *Machine) resolveSlot(in *ir.Instr, c *ir.Class) int {
	f := in.Field
	if f.Slot >= 0 && f.Owner != nil {
		if c.IsSubclassOf(f.Owner) {
			return f.Slot
		}
		// Bound to a different class version: fall back to by-name lookup.
	}
	m.charge(DimDynFieldExtra, 1)
	if s, ok := m.slotByName(c, f.Name); ok {
		return s
	}
	m.fail(in.Pos, "class %s has no field %s", c.Name, f.Name)
	return 0
}

func (m *Machine) checkIndex(in *ir.Instr, a *Array, i int64) int {
	if i < 0 || int(i) >= a.Length {
		m.fail(in.Pos, "array index %d out of range [0,%d)", i, a.Length)
	}
	return int(i)
}

func (m *Machine) arrGet(in *ir.Instr, av, iv Value) Value {
	if av.kind != KArr {
		m.fail(in.Pos, "indexing a %s value", av.kind)
	}
	a := av.Arr()
	i := m.checkIndex(in, a, m.wantInt(in, iv))
	if a.Stride != 0 {
		m.fail(in.Pos, "plain load from inlined array (unspecialized access)")
	}
	m.counts.Dereferences++
	m.charge(DimArrayAccess, 1)
	m.prof.noteElemAccess(a, m.mem(a.SlotAddr(i)))
	return a.Elems[i]
}

func (m *Machine) arrSet(in *ir.Instr, av, iv, v Value) {
	if av.kind != KArr {
		m.fail(in.Pos, "indexing a %s value", av.kind)
	}
	a := av.Arr()
	i := m.checkIndex(in, a, m.wantInt(in, iv))
	if a.Stride != 0 {
		m.fail(in.Pos, "plain store to inlined array (unspecialized access)")
	}
	m.counts.Dereferences++
	m.charge(DimArrayAccess, 1)
	m.prof.noteElemAccess(a, m.mem(a.SlotAddr(i)))
	a.Elems[i] = v
}

func (m *Machine) arrInterior(in *ir.Instr, av, iv Value) Value {
	if av.kind != KArr {
		m.fail(in.Pos, "indexing a %s value", av.kind)
	}
	a := av.Arr()
	i := m.checkIndex(in, a, m.wantInt(in, iv))
	if a.Stride == 0 {
		m.fail(in.Pos, "interior reference into a plain array")
	}
	m.charge(DimArrayAccess, 1)
	if a.Parallel() {
		return InteriorValue(a, i)
	}
	return InteriorValue(a, i*a.Stride)
}

// binop evaluates in's binary operator on *x and *y. The operands are
// passed by pointer into the register window: the result is computed
// before the caller stores it, so Dst may alias either one.
func (m *Machine) binop(in *ir.Instr, x, y *Value) Value {
	op := ir.BinOp(in.Aux)
	m.charge(DimArith, 1)
	switch op {
	case ir.BinEq:
		return BoolValue(Identical(*x, *y))
	case ir.BinNe:
		return BoolValue(!Identical(*x, *y))
	}
	if x.kind == KStr && y.kind == KStr {
		switch op {
		case ir.BinAdd:
			return StrValue(x.Str() + y.Str())
		case ir.BinLt:
			return BoolValue(x.Str() < y.Str())
		case ir.BinLe:
			return BoolValue(x.Str() <= y.Str())
		case ir.BinGt:
			return BoolValue(x.Str() > y.Str())
		case ir.BinGe:
			return BoolValue(x.Str() >= y.Str())
		}
		m.fail(in.Pos, "operator %s not defined on strings", op)
	}
	if !isNum(*x) || !isNum(*y) {
		m.fail(in.Pos, "operator %s on %s and %s", op, x.kind, y.kind)
	}
	if x.kind == KInt && y.kind == KInt {
		a, b := x.Int(), y.Int()
		switch op {
		case ir.BinAdd:
			return IntValue(a + b)
		case ir.BinSub:
			return IntValue(a - b)
		case ir.BinMul:
			return IntValue(a * b)
		case ir.BinDiv:
			if b == 0 {
				m.fail(in.Pos, "integer division by zero")
			}
			return IntValue(a / b)
		case ir.BinMod:
			if b == 0 {
				m.fail(in.Pos, "integer modulo by zero")
			}
			return IntValue(a % b)
		case ir.BinLt:
			return BoolValue(a < b)
		case ir.BinLe:
			return BoolValue(a <= b)
		case ir.BinGt:
			return BoolValue(a > b)
		case ir.BinGe:
			return BoolValue(a >= b)
		}
	}
	a, b := toF(*x), toF(*y)
	switch op {
	case ir.BinAdd:
		return FloatValue(a + b)
	case ir.BinSub:
		return FloatValue(a - b)
	case ir.BinMul:
		return FloatValue(a * b)
	case ir.BinDiv:
		return FloatValue(a / b)
	case ir.BinMod:
		return FloatValue(math.Mod(a, b))
	case ir.BinLt:
		return BoolValue(a < b)
	case ir.BinLe:
		return BoolValue(a <= b)
	case ir.BinGt:
		return BoolValue(a > b)
	case ir.BinGe:
		return BoolValue(a >= b)
	}
	m.fail(in.Pos, "unknown binary operator")
	return Value{}
}

func (m *Machine) unop(in *ir.Instr, x Value) Value {
	m.charge(DimArith, 1)
	switch ir.UnOp(in.Aux) {
	case ir.UnNeg:
		switch x.kind {
		case KInt:
			return IntValue(-x.Int())
		case KFloat:
			return FloatValue(-x.Float())
		}
		m.fail(in.Pos, "negating a %s value", x.kind)
	case ir.UnNot:
		return BoolValue(!x.Truthy())
	}
	m.fail(in.Pos, "unknown unary operator")
	return Value{}
}

func (m *Machine) builtin(in *ir.Instr, regs []Value) Value {
	m.charge(DimBuiltin, 1)
	b := ir.Builtin(in.Aux)
	switch b {
	case ir.BPrint:
		parts := make([]string, len(in.Args))
		for i := range in.Args {
			parts[i] = regs[in.Args[i]].String()
		}
		fmt.Fprintln(m.out, strings.Join(parts, " "))
		return NilValue()
	case ir.BSqrt:
		return FloatValue(math.Sqrt(m.wantNum(in, regs[in.Args[0]])))
	case ir.BFloor:
		return FloatValue(math.Floor(m.wantNum(in, regs[in.Args[0]])))
	case ir.BAbs:
		v := regs[in.Args[0]]
		switch v.kind {
		case KInt:
			if v.Int() < 0 {
				return IntValue(-v.Int())
			}
			return v
		case KFloat:
			return FloatValue(math.Abs(v.Float()))
		}
		m.fail(in.Pos, "abs of %s value", v.kind)
	case ir.BMin, ir.BMax:
		x, y := regs[in.Args[0]], regs[in.Args[1]]
		if x.kind == KInt && y.kind == KInt {
			if (b == ir.BMin) == (x.Int() < y.Int()) {
				return x
			}
			return y
		}
		a, c := m.wantNum(in, x), m.wantNum(in, y)
		if (b == ir.BMin) == (a < c) {
			return FloatValue(a)
		}
		return FloatValue(c)
	case ir.BLen:
		v := regs[in.Args[0]]
		switch v.kind {
		case KArr:
			return IntValue(int64(v.Arr().Length))
		case KStr:
			return IntValue(int64(len(v.Str())))
		}
		m.fail(in.Pos, "len of %s value", v.kind)
	case ir.BIntOf:
		v := regs[in.Args[0]]
		switch v.kind {
		case KInt:
			return v
		case KFloat:
			return IntValue(int64(v.Float()))
		}
		m.fail(in.Pos, "intof of %s value", v.kind)
	case ir.BFloatOf:
		return FloatValue(m.wantNum(in, regs[in.Args[0]]))
	case ir.BAssert:
		if !regs[in.Args[0]].Truthy() {
			m.fail(in.Pos, "assertion failed")
		}
		return NilValue()
	case ir.BStrCat:
		x, y := regs[in.Args[0]], regs[in.Args[1]]
		return StrValue(x.String() + y.String())
	case ir.BXor:
		x, y := regs[in.Args[0]], regs[in.Args[1]]
		if x.kind != KInt || y.kind != KInt {
			m.fail(in.Pos, "bxor needs ints, got %s and %s", x.kind, y.kind)
		}
		return IntValue(x.Int() ^ y.Int())
	}
	m.fail(in.Pos, "unknown builtin")
	return Value{}
}

func (m *Machine) wantNum(in *ir.Instr, v Value) float64 {
	if !isNum(v) {
		m.fail(in.Pos, "expected number, got %s", v.kind)
	}
	return toF(v)
}
