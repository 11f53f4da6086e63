package vm

// CostDim indexes one dimension of the cost model. The VM counts events
// per dimension (Counters.CostEvents) as it charges them, and nothing
// else for them: total cycles are the dot product of the event vector and
// the model's constants, computed when the run ends — so a run measured
// once can also be *replayed* under any other cost model without
// re-executing (see Counters.CyclesUnder).
type CostDim int

// Cost-model dimensions. Each is charged for the event named beside it.
const (
	DimBase          CostDim = iota // every executed instruction
	DimArith                        // extra for arithmetic/compare
	DimFieldAccess                  // extra for a resolved (slot-bound) field access
	DimDynFieldExtra                // extra for a by-name field lookup (unoptimized model)
	DimArrayAccess                  // extra for an array element access
	DimDispatch                     // dynamic method lookup + indirect call
	DimStaticCall                   // devirtualized call
	DimCallFrame                    // per-call frame setup/teardown
	DimAllocBase                    // per heap allocation
	DimAllocPerSlot                 // per allocated slot
	DimStackAlloc                   // per stack/arena allocation of an elided temporary
	DimCacheHit                     // per simulated memory access that hits
	DimCacheMiss                    // per simulated memory access that misses
	DimBuiltin                      // per builtin invocation
	NumCostDims
)

// CostModel charges deterministic cycle costs per VM operation, indexed
// by dimension. The absolute numbers are not calibrated to any real
// machine; they are chosen so that the relative weight of dispatch,
// allocation, and memory traffic is realistic for a mid-90s RISC
// workstation, which is what Figure 17's *shape* depends on.
type CostModel [NumCostDims]int64

// DefaultCostModel is the model every run's Cycles is computed under.
var DefaultCostModel = CostModel{
	DimBase:          1,
	DimArith:         0,
	DimFieldAccess:   1,
	DimDynFieldExtra: 3,
	DimArrayAccess:   1,
	DimDispatch:      12,
	DimStaticCall:    2,
	DimCallFrame:     3,
	DimAllocBase:     60,
	DimAllocPerSlot:  2,
	DimStackAlloc:    3,
	DimCacheHit:      1,
	DimCacheMiss:     40,
	DimBuiltin:       2,
}

// Counters accumulates dynamic execution metrics; these are the raw data
// behind EXPERIMENTS.md and Figure 17. Counters that mirror one cost
// dimension are not counted separately: the VM derives them, and Cycles,
// from CostEvents when the run ends (the dimension is named beside each).
// The JSON tags are the public API's wire shape (objinline.Metrics is
// this type); the counters tagged "-" stay internal.
type Counters struct {
	Instructions uint64 `json:"instructions"` // DimBase
	Cycles       int64  `json:"cycles"`       // CyclesUnder DefaultCostModel

	Dereferences    uint64 `json:"dereferences"`      // heap loads/stores of object fields & array elems
	DynFieldLookups uint64 `json:"dyn_field_lookups"` // field accesses resolved by name at run time; DimDynFieldExtra
	Dispatches      uint64 `json:"dispatches"`        // dynamic method calls; DimDispatch
	StaticCalls     uint64 `json:"static_calls"`      // DimStaticCall
	Calls           uint64 `json:"calls"`             // all function/method calls; DimCallFrame
	Builtins        uint64 `json:"-"`                 // DimBuiltin

	ObjectsAllocated uint64 `json:"heap_objects"`  // heap objects
	StackAllocated   uint64 `json:"stack_objects"` // elided temporaries (cheap stack/arena allocation); DimStackAlloc
	ArraysAllocated  uint64 `json:"arrays"`
	SlotsAllocated   uint64 `json:"-"`
	BytesAllocated   uint64 `json:"bytes_allocated"`

	CacheHits   uint64 `json:"cache_hits"`   // DimCacheHit with a cache; 0 without one
	CacheMisses uint64 `json:"cache_misses"` // DimCacheMiss

	// CostEvents counts, per cost-model dimension, how many times that
	// dimension was charged (for DimAllocPerSlot, the number of slots).
	// Without a cache every access is charged to DimCacheHit. Cycles is
	// always the dot product of this vector and DefaultCostModel, which is
	// what CyclesUnder exploits.
	CostEvents [NumCostDims]uint64 `json:"-"`
}

// CyclesUnder replays the run's charge events against a different cost
// model and returns the cycle total that model would have produced. The
// event stream of an execution is independent of the cost constants (the
// program path, allocations, and cache behaviour do not consult them), so
// the replayed total is exactly what a fresh run under model would
// measure — at none of the cost.
func (c *Counters) CyclesUnder(model *CostModel) int64 {
	var total int64
	for d, n := range c.CostEvents {
		total += int64(n) * model[d]
	}
	return total
}
