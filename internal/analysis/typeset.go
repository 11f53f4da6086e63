// Package analysis implements the Concert-style context-sensitive flow
// analysis the paper builds on (§3.2.1): concrete type inference over
// *method contours* (execution contexts of a method) and *object contours*
// (allocation statements under a creating context), with demand-driven
// contour splitting. With tags enabled it additionally performs the
// paper's use-specialization analysis (§4.1): every value carries the set
// of field paths it may have been loaded from.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// PrimMask is a bitset of primitive type kinds.
type PrimMask uint8

// Primitive type bits.
const (
	PInt PrimMask = 1 << iota
	PFloat
	PBool
	PStr
	PNil
)

var primNames = []struct {
	bit  PrimMask
	name string
}{
	{PInt, "int"}, {PFloat, "float"}, {PBool, "bool"}, {PStr, "str"}, {PNil, "nil"},
}

// TypeSet is a set of concrete types: primitive kinds plus object and
// array contours. The zero value is the empty set.
//
// The contour lists are value sets (see valueset.go): sorted by ID and
// copy-on-write, so reading them is free and a stored list never
// changes under its reader.
type TypeSet struct {
	Prims PrimMask
	objs  []*ObjContour
	arrs  []*ArrContour
}

// AddPrim adds primitive bits, reporting whether the set changed.
func (t *TypeSet) AddPrim(m PrimMask) bool {
	if t.Prims&m == m {
		return false
	}
	t.Prims |= m
	return true
}

// AddObj adds an object contour, reporting whether the set changed.
func (t *TypeSet) AddObj(oc *ObjContour) bool {
	var changed bool
	t.objs, changed = insert(t.objs, oc)
	return changed
}

// AddArr adds an array contour, reporting whether the set changed.
func (t *TypeSet) AddArr(ac *ArrContour) bool {
	var changed bool
	t.arrs, changed = insert(t.arrs, ac)
	return changed
}

// Union adds all of o into t, reporting whether t changed. It allocates
// only when o holds contours t lacks, and a union into an empty
// destination shares o's lists.
func (t *TypeSet) Union(o *TypeSet) bool {
	if t == o || o.IsEmpty() {
		return false
	}
	changed := t.AddPrim(o.Prims)
	var c bool
	if t.objs, c = union(t.objs, o.objs); c {
		changed = true
	}
	if t.arrs, c = union(t.arrs, o.arrs); c {
		changed = true
	}
	return changed
}

// IsEmpty reports whether the set has no members.
func (t *TypeSet) IsEmpty() bool {
	return t.Prims == 0 && len(t.objs) == 0 && len(t.arrs) == 0
}

// HasObjects reports whether any object contour is in the set.
func (t *TypeSet) HasObjects() bool { return len(t.objs) > 0 }

// HasArrays reports whether any array contour is in the set.
func (t *TypeSet) HasArrays() bool { return len(t.arrs) > 0 }

// ObjList returns the object contours in ascending ID order. The slice
// is the set's own storage: callers must not modify it.
func (t *TypeSet) ObjList() []*ObjContour { return t.objs }

// ArrList returns the array contours in ascending ID order. The slice is
// the set's own storage: callers must not modify it.
func (t *TypeSet) ArrList() []*ArrContour { return t.arrs }

// Classes returns the distinct object classes in the set, sorted by name.
func (t *TypeSet) Classes() []string {
	seen := make(map[string]bool)
	for _, oc := range t.objs {
		seen[oc.Class.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the set for debugging.
func (t *TypeSet) String() string {
	var parts []string
	for _, p := range primNames {
		if t.Prims&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	for _, oc := range t.ObjList() {
		parts = append(parts, fmt.Sprintf("%s#%d", oc.Class.Name, oc.ID))
	}
	for _, ac := range t.ArrList() {
		parts = append(parts, fmt.Sprintf("arr#%d", ac.ID))
	}
	if len(parts) == 0 {
		return "{}"
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// State is the abstract value of one cell: its concrete types and the
// field tags it may carry (tags empty means "not yet reached"; the
// canonical NoField tag is explicit, as in the paper). Edge arguments
// are bare States; every cell a transfer function reads is a VarState.
type State struct {
	TS   TypeSet
	Tags TagSet
}

// Merge unions o into s, reporting change.
func (s *State) Merge(o *State) bool {
	if s == o {
		return false
	}
	c1 := s.TS.Union(&o.TS)
	c2 := s.Tags.Union(&o.Tags)
	return c1 || c2
}

// VarState is a State plus the worklist solver's bookkeeping: the
// (method contour, instruction, slot) readers of the state (its
// dependents), packed into pointer-free uint64 keys (see solver.go). The
// first inlineReaders live in dep, filled from the front (zero ends the
// list); only a state read by more spills the rest into deps, a sorted,
// duplicate-free list disjoint from dep (on richards, about 3.5% of the
// states that have readers spill). deps is a pointer so that the rare
// spill costs the common cell one word. Maintained only while solving.
type VarState struct {
	State

	dep  [inlineReaders]uint64
	deps *[]uint64
}

// inlineReaders is how many readers a VarState holds without spilling.
const inlineReaders = 3
