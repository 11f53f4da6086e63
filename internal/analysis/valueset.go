package analysis

import "slices"

// Value sets. TypeSet's contour lists and TagSet's tags are slices
// sorted by strictly ascending ID and never written once stored: every
// change builds a new slice. So reads (ObjList, ArrList, List) return
// the stored slice without allocating or sorting, a transfer function
// may iterate a source's list while merging into a destination that is
// the same cell, and a union into an empty set shares the source's
// slice.
//
// IDs are creation order within a pass, so creation keeps lists sorted.
// canonicalize renumbers contours and tags at the end of the pass and
// then re-sorts every list once, in place (resortStates): the one write
// to a stored list, made when no transfer function holds one. Readers
// after the pass therefore see canonical-ID order.

// member is an element of a value set, ordered by its ID.
type member interface {
	*ObjContour | *ArrContour | *Tag
	setID() int
}

func (oc *ObjContour) setID() int { return oc.ID }
func (ac *ArrContour) setID() int { return ac.ID }
func (t *Tag) setID() int         { return t.ID }

// search returns the position of id in the ascending list s and whether
// a member with that ID is present there.
func search[T member](s []T, id int) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m].setID() < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo].setID() == id
}

// insert returns s with x added and whether x was new. s is never
// written: a new member yields a new slice.
func insert[T member](s []T, x T) ([]T, bool) {
	i, ok := search(s, x.setID())
	if ok {
		return s, false
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out, true
}

// union returns the union of s and o and whether it differs from s,
// allocating only when o has members s lacks.
func union[T member](s, o []T) ([]T, bool) {
	n := missing(s, o)
	if n == 0 {
		return s, false
	}
	return merge(s, o, n), true
}

// missing counts the members of o that s lacks. The walk compares
// pointers before IDs, so a converged pair costs no ID reads.
func missing[T member](s, o []T) int {
	switch {
	case len(s) == 0:
		return len(o)
	case len(o) == 0 || len(s) == len(o) && &s[0] == &o[0]:
		return 0
	}
	n, i := 0, 0
	for _, x := range o {
		if i < len(s) && s[i] == x {
			i++
			continue
		}
		id := x.setID()
		for i < len(s) && s[i].setID() < id {
			i++
		}
		if i < len(s) && s[i].setID() == id {
			i++
		} else {
			n++
		}
	}
	return n
}

// merge returns the sorted union of s and o, given that o has n members
// s lacks. Into an empty s it returns o itself.
func merge[T member](s, o []T, n int) []T {
	if len(s) == 0 {
		return o
	}
	out := make([]T, 0, len(s)+n)
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		a, b := s[i].setID(), o[j].setID()
		switch {
		case a < b:
			out = append(out, s[i])
			i++
		case b < a:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, s[i:]...)
	return append(out, o[j:]...)
}

// sortByID restores ascending ID order after the members were
// renumbered. A list shared between cells is sorted once and stays
// shared.
func sortByID[T member](s []T) {
	if !slices.IsSortedFunc(s, byID[T]) {
		slices.SortFunc(s, byID[T])
	}
}

func byID[T member](x, y T) int { return x.setID() - y.setID() }

// resort restores s's lists to ascending ID order.
func (s *State) resort() {
	sortByID(s.TS.objs)
	sortByID(s.TS.arrs)
	sortByID(s.Tags.tags)
}

// resortStates re-sorts one pass's value sets by the IDs canonicalize
// assigned: every register, return cell and edge argument of every
// method contour, every object field, array element summary and global.
func (a *analyzer) resortStates() {
	all := func(states []VarState) {
		for i := range states {
			states[i].resort()
		}
	}
	for _, mc := range a.mcList {
		all(mc.Regs)
		mc.Ret.resort()
		for _, e := range mc.InEdges {
			for i := range e.Args {
				e.Args[i].resort()
			}
		}
	}
	for _, oc := range a.ocList {
		all(oc.Fields)
	}
	for _, ac := range a.acList {
		ac.Elem.resort()
	}
	all(a.globals)
}
