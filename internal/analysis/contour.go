package analysis

import (
	"fmt"

	"objinline/internal/ir"
)

// MethodContour represents one analyzed execution context of a function —
// the paper's unit of context sensitivity (§3.2.1). The Key encodes which
// discriminators the contour-selection policy applied (caller site,
// receiver object contour, receiver tag).
type MethodContour struct {
	ID  int
	Fn  *ir.Func
	Key string

	// Regs is the abstract state of every virtual register, flow-
	// insensitively within the contour.
	Regs []VarState
	// Ret is the merged return value state.
	Ret VarState

	// Callees maps a call instruction ID to the callee contours bound at
	// that site in this contour.
	Callees map[int]map[*MethodContour]struct{}
	// Targets maps a dynamic-dispatch instruction ID to the resolved
	// target functions (used by cloning to decide static binding).
	Targets map[int]map[*ir.Func]struct{}

	// InEdges are the interprocedural edges that feed this contour.
	InEdges []*Edge

	// NewObjs and NewArrs map allocation instruction IDs to the contour
	// created at that site under this method contour (the transformation
	// needs them to pick class versions for rewritten allocations).
	NewObjs map[int]*ObjContour
	NewArrs map[int]*ArrContour

	// dirty marks, by flattened instruction position, which instructions
	// the worklist solver must re-evaluate on its next visit to this
	// contour. All-true at creation (the first visit runs everything);
	// nil under the sweep solver. See solver.go.
	dirty []bool

	// calleeOrder lists each call site's callees in the order the last
	// full evaluation of the site enumerated them. The partial
	// re-evaluations (evalArgs/evalRet) iterate this list instead of the
	// Callees set so their merges replay in the full evaluation's exact
	// order — tag sets saturate order-sensitively (see TagSet.Add), so
	// matching the order is what keeps the worklist bit-identical to the
	// sweep. Maintained by the worklist solver.
	calleeOrder map[int][]*MethodContour

	// ctxHash is the contour's intrinsic identity hash: the function ID
	// chained with the context key. Unlike the creation-order ID, it does
	// not depend on the order contours were created in, so derived
	// contour keys (the "c..." component of creator-split allocations)
	// never leak creation order into the partition. canonicalize()
	// renumbers IDs at the end of every pass from order-independent sort
	// keys.
	ctxHash uint64

	// siteKeyMemo memoizes this contour's per-call-site context keys.
	siteKeyMemo map[int]string
}

// resetCalleeOrder clears a site's enumeration-order list (keeping its
// capacity) before a full evaluation rebuilds it.
func (mc *MethodContour) resetCalleeOrder(instrID int) {
	if mc.calleeOrder == nil {
		mc.calleeOrder = make(map[int][]*MethodContour)
	}
	mc.calleeOrder[instrID] = mc.calleeOrder[instrID][:0]
}

// noteCallee appends a callee to a site's enumeration-order list. Sites
// have few callees, so the dedup (one contour serving several receiver
// contours in one enumeration) is a linear scan.
func (mc *MethodContour) noteCallee(instrID int, callee *MethodContour) {
	list := mc.calleeOrder[instrID]
	for _, c := range list {
		if c == callee {
			return
		}
	}
	mc.calleeOrder[instrID] = append(list, callee)
}

func (mc *MethodContour) String() string {
	return fmt.Sprintf("%s[%d]%s", mc.Fn.FullName(), mc.ID, mc.Key)
}

// Reg returns the state cell for register r.
func (mc *MethodContour) Reg(r ir.Reg) *VarState { return &mc.Regs[r] }

// addCallee records a call binding, reporting whether it is new.
func (mc *MethodContour) addCallee(instrID int, callee *MethodContour) bool {
	if mc.Callees == nil {
		mc.Callees = make(map[int]map[*MethodContour]struct{})
	}
	set := mc.Callees[instrID]
	if set == nil {
		set = make(map[*MethodContour]struct{})
		mc.Callees[instrID] = set
	}
	if _, ok := set[callee]; ok {
		return false
	}
	set[callee] = struct{}{}
	return true
}

// addTarget records a resolved dispatch target.
func (mc *MethodContour) addTarget(instrID int, fn *ir.Func) {
	if mc.Targets == nil {
		mc.Targets = make(map[int]map[*ir.Func]struct{})
	}
	set := mc.Targets[instrID]
	if set == nil {
		set = make(map[*ir.Func]struct{})
		mc.Targets[instrID] = set
	}
	set[fn] = struct{}{}
}

// Edge is one interprocedural call edge between contours. The analysis
// accumulates the argument states it transmitted; the splitting criteria
// compare these across edges to decide where more context is needed.
type Edge struct {
	From  *MethodContour
	Instr *ir.Instr
	To    *MethodContour
	// Args accumulates, per callee register (self included for methods),
	// the state this edge has transmitted. Nothing reads them while
	// solving, so they carry no reader bookkeeping.
	Args []State
}

// ObjContour represents the objects allocated by one new statement under a
// given creating context (§3.2.1's object contours).
type ObjContour struct {
	ID     int
	Class  *ir.Class
	Site   *ir.Instr
	SiteFn *ir.Func
	Key    string

	// Fields holds the abstract state of each slot of Class.
	Fields []VarState

	// fieldTags holds, per slot, the tags interned for that field
	// instance (see tagTable); nil until the first is made.
	fieldTags [][]*Tag

	// ctxHash is the intrinsic identity hash (site plus key); see
	// MethodContour.ctxHash.
	ctxHash uint64
}

func (oc *ObjContour) String() string {
	return fmt.Sprintf("%s#%d@%s/%d%s", oc.Class.Name, oc.ID, oc.SiteFn.FullName(), oc.Site.ID, oc.Key)
}

// FieldState returns the state cell for the named field, or nil if the
// class has no such field.
func (oc *ObjContour) FieldState(name string) *VarState {
	if slot := oc.fieldSlot(name); slot >= 0 {
		return &oc.Fields[slot]
	}
	return nil
}

// fieldSlot returns the slot of the named field (the first of that
// name), or -1.
func (oc *ObjContour) fieldSlot(name string) int {
	for _, f := range oc.Class.Fields {
		if f.Name == name {
			return f.Slot
		}
	}
	return -1
}

// ArrContour represents the arrays allocated by one "new [n]" statement
// under a given creating context. All elements share one summary cell, as
// in the paper ("our analysis does not distinguish different array
// elements", §6.1).
type ArrContour struct {
	ID     int
	Site   *ir.Instr
	SiteFn *ir.Func
	Key    string

	// Elem summarizes every element's state.
	Elem VarState

	// elemTags holds the tags interned for the elements (see tagTable).
	elemTags []*Tag

	// ctxHash is the intrinsic identity hash (site plus key); see
	// MethodContour.ctxHash.
	ctxHash uint64
}

// ElemKey returns the FieldKey of the elements of ac's allocation site,
// which every contour of that site shares.
func (ac *ArrContour) ElemKey() FieldKey {
	return FieldKey{Array: true, ASiteUID: siteUID(ac.SiteFn, ac.Site)}
}

func (ac *ArrContour) String() string {
	return fmt.Sprintf("arr#%d@%s/%d%s", ac.ID, ac.SiteFn.FullName(), ac.Site.ID, ac.Key)
}

// fnPolicy records which discriminators the contour-selection function
// applies for one function. Bits only turn on, which guarantees the
// iterative refinement terminates.
type fnPolicy struct {
	splitBySite    bool // one contour per (caller contour, call site)
	splitByRecvOC  bool // one contour per receiver object contour
	splitByRecvTag bool // one contour per receiver tag (tags mode)
}
