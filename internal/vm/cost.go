package vm

// CostModel charges deterministic cycle costs per VM operation. The
// absolute numbers are not calibrated to any real machine; they are chosen
// so that the relative weight of dispatch, allocation, and memory traffic
// is realistic for a mid-90s RISC workstation, which is what Figure 17's
// *shape* depends on.
type CostModel struct {
	Base          int64 // every executed instruction
	Arith         int64 // extra for arithmetic/compare
	FieldAccess   int64 // extra for a resolved (slot-bound) field access
	DynFieldExtra int64 // extra for a by-name field lookup (unoptimized model)
	ArrayAccess   int64 // extra for an array element access
	Dispatch      int64 // dynamic method lookup + indirect call
	StaticCall    int64 // devirtualized call
	CallFrame     int64 // per-call frame setup/teardown
	AllocBase     int64 // per heap allocation
	AllocPerSlot  int64 // per allocated slot
	StackAlloc    int64 // per stack/arena allocation of an elided temporary
	CacheHit      int64 // per simulated memory access that hits
	CacheMiss     int64 // per simulated memory access that misses
	Builtin       int64 // per builtin invocation
}

// CostDim indexes one dimension of the cost model. The VM counts events
// per dimension (Counters.CostEvents) as it charges them, and nothing
// else for them: total cycles are the dot product of the event vector and
// the model's constants, computed when the run ends — so a run measured
// once can also be *replayed* under any other cost model without
// re-executing (see Counters.CyclesUnder).
type CostDim int

// Cost-model dimensions, one per CostModel field.
const (
	DimBase CostDim = iota
	DimArith
	DimFieldAccess
	DimDynFieldExtra
	DimArrayAccess
	DimDispatch
	DimStaticCall
	DimCallFrame
	DimAllocBase
	DimAllocPerSlot
	DimStackAlloc
	DimCacheHit
	DimCacheMiss
	DimBuiltin
	NumCostDims
)

// Vec returns the model's constants indexed by dimension.
func (c *CostModel) Vec() [NumCostDims]int64 {
	return [NumCostDims]int64{
		DimBase:          c.Base,
		DimArith:         c.Arith,
		DimFieldAccess:   c.FieldAccess,
		DimDynFieldExtra: c.DynFieldExtra,
		DimArrayAccess:   c.ArrayAccess,
		DimDispatch:      c.Dispatch,
		DimStaticCall:    c.StaticCall,
		DimCallFrame:     c.CallFrame,
		DimAllocBase:     c.AllocBase,
		DimAllocPerSlot:  c.AllocPerSlot,
		DimStackAlloc:    c.StackAlloc,
		DimCacheHit:      c.CacheHit,
		DimCacheMiss:     c.CacheMiss,
		DimBuiltin:       c.Builtin,
	}
}

// DefaultCostModel is used by all experiments unless overridden.
var DefaultCostModel = CostModel{
	Base:          1,
	Arith:         0,
	FieldAccess:   1,
	DynFieldExtra: 3,
	ArrayAccess:   1,
	Dispatch:      12,
	StaticCall:    2,
	CallFrame:     3,
	AllocBase:     60,
	AllocPerSlot:  2,
	StackAlloc:    3,
	CacheHit:      1,
	CacheMiss:     40,
	Builtin:       2,
}

// Counters accumulates dynamic execution metrics; these are the raw data
// behind EXPERIMENTS.md and Figure 17. Counters that mirror one cost
// dimension are not counted separately: the VM derives them, and Cycles,
// from CostEvents when the run ends (the dimension is named beside each).
type Counters struct {
	Instructions uint64 // DimBase
	Cycles       int64  // CyclesUnder the run's cost model

	Dereferences    uint64 // heap loads/stores of object fields & array elems
	DynFieldLookups uint64 // field accesses resolved by name at run time; DimDynFieldExtra
	Dispatches      uint64 // dynamic method calls; DimDispatch
	StaticCalls     uint64 // DimStaticCall
	Calls           uint64 // all function/method calls; DimCallFrame
	Builtins        uint64 // DimBuiltin

	ObjectsAllocated uint64 // heap objects
	StackAllocated   uint64 // elided temporaries (cheap stack/arena allocation); DimStackAlloc
	ArraysAllocated  uint64
	SlotsAllocated   uint64
	BytesAllocated   uint64

	CacheHits   uint64 // DimCacheHit with a cache; 0 without one
	CacheMisses uint64 // DimCacheMiss

	// CostEvents counts, per cost-model dimension, how many times that
	// dimension was charged (for DimAllocPerSlot, the number of slots).
	// Without a cache every access is charged to DimCacheHit. Cycles is
	// always the dot product of this vector and the run's cost model,
	// which is what CyclesUnder exploits.
	CostEvents [NumCostDims]uint64
}

// CyclesUnder replays the run's charge events against a different cost
// model and returns the cycle total that model would have produced. The
// event stream of an execution is independent of the cost constants (the
// program path, allocations, and cache behaviour do not consult them), so
// the replayed total is exactly what a fresh run under model would
// measure — at none of the cost.
func (c *Counters) CyclesUnder(model *CostModel) int64 {
	vec := model.Vec()
	var total int64
	for d, n := range c.CostEvents {
		total += int64(n) * vec[d]
	}
	return total
}
