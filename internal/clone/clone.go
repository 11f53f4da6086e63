// Package clone implements the Concert cloning framework (§3.2.2 of the
// paper): method contours are partitioned into groups of *compatible*
// contours, one method clone is emitted per group, and the partition is
// iteratively refined when a callee's split would force a dynamic dispatch
// in a caller ("the cloning framework includes an iterative mechanism to
// split caller methods when cloning a callee creates a dynamic dispatch").
//
// Compatibility is supplied by the client as a signature function — the
// type-directed-cloning client signs contours with their dispatch targets
// and field bindings; the object-inlining client (package core) adds the
// inlined-field representation of every value.
package clone

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// Group is one set of compatible contours of a single function; it
// materializes as one cloned function.
type Group struct {
	ID      int
	Fn      *ir.Func
	Members []*analysis.MethodContour

	// NewFn is the materialized clone (set by the client).
	NewFn *ir.Func
}

// Rep returns a representative member (the lowest-ID contour).
func (g *Group) Rep() *analysis.MethodContour { return g.Members[0] }

func (g *Group) String() string {
	return fmt.Sprintf("%s/g%d(%d members)", g.Fn.FullName(), g.ID, len(g.Members))
}

// Grouping is a partition of all reached contours.
type Grouping struct {
	Groups    []*Group
	ByContour map[*analysis.MethodContour]*Group
}

// GroupOf returns the group containing mc, or nil.
func (g *Grouping) GroupOf(mc *analysis.MethodContour) *Group { return g.ByContour[mc] }

// Partition groups each function's contours by the client signature, then
// refines the partition until every call site of every group resolves
// consistently:
//
//   - a direct call site (OpCall/OpCallStatic) must reach exactly one
//     callee group across all members;
//   - a dynamic call site (OpCallMethod) must, for each target function,
//     reach exactly one group of that function across all members (the
//     receiver class still discriminates between target functions at run
//     time, but not between clones of the same function).
//
// Members that disagree are split apart, which may invalidate their
// callers' consistency, hence the fixpoint.
func Partition(res *analysis.Result, sig func(*analysis.MethodContour) string) *Grouping {
	// Initial partition: per function, by client signature.
	buckets := make(map[bucketKey][]*analysis.MethodContour)
	for _, mc := range res.Mcs {
		key := bucketKey{mc.Fn.ID, sig(mc)}
		buckets[key] = append(buckets[key], mc)
	}
	g := &Grouping{ByContour: make(map[*analysis.MethodContour]*Group)}
	keys := make([]bucketKey, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		members := buckets[k]
		sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
		grp := &Group{ID: len(g.Groups), Fn: members[0].Fn, Members: members}
		g.Groups = append(g.Groups, grp)
		for _, mc := range members {
			g.ByContour[mc] = grp
		}
	}

	// Refinement to a fixpoint.
	for round := 0; ; round++ {
		if round > len(res.Mcs)+4 {
			panic("clone: refinement did not converge")
		}
		if !g.refineOnce() {
			return g
		}
	}
}

// bucketKey is one cell of the initial partition: a function and a
// client signature.
type bucketKey struct {
	fn  int
	sig string
}

// less orders buckets by the function ID's decimal text, then by
// signature: the byte order of the "ID\x00signature" strings the
// partition was once keyed by, which group IDs (and so clone names)
// still follow.
func (k bucketKey) less(o bucketKey) bool {
	if k.fn != o.fn {
		var x, y [20]byte
		return string(strconv.AppendInt(x[:0], int64(k.fn), 10)) < string(strconv.AppendInt(y[:0], int64(o.fn), 10))
	}
	return k.sig < o.sig
}

// refineOnce splits any group whose members disagree on callee groups,
// reporting whether anything changed.
func (g *Grouping) refineOnce() bool {
	changed := false
	var next []*Group
	for _, grp := range g.Groups {
		if len(grp.Members) == 1 {
			next = append(next, grp)
			continue
		}
		parts := make(map[string][]*analysis.MethodContour)
		var order []string
		for _, mc := range grp.Members {
			s := g.calleeSig(mc)
			if _, ok := parts[s]; !ok {
				order = append(order, s)
			}
			parts[s] = append(parts[s], mc)
		}
		if len(parts) == 1 {
			next = append(next, grp)
			continue
		}
		changed = true
		sort.Strings(order)
		for _, s := range order {
			members := parts[s]
			ng := &Group{Fn: grp.Fn, Members: members}
			next = append(next, ng)
		}
	}
	if changed {
		g.Groups = next
		for i, grp := range g.Groups {
			grp.ID = i
			for _, mc := range grp.Members {
				g.ByContour[mc] = grp
			}
		}
	}
	return changed
}

// calleeSig canonicalizes which groups a contour's call sites reach.
func (g *Grouping) calleeSig(mc *analysis.MethodContour) string {
	ids := make([]int, 0, len(mc.Callees))
	for id := range mc.Callees {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, "%d:", id)
		groups := make([]int, 0, len(mc.Callees[id]))
		for callee := range mc.Callees[id] {
			if grp := g.ByContour[callee]; grp != nil {
				groups = append(groups, grp.ID)
			}
		}
		sort.Ints(groups)
		for _, gid := range groups {
			fmt.Fprintf(&b, "%d,", gid)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// CalleeGroups returns the distinct groups bound at a call site of a
// group, sorted by ID. After Partition's fixpoint every member agrees, so
// the representative member suffices.
func (g *Grouping) CalleeGroups(grp *Group, instrID int) []*Group {
	seen := make(map[*Group]bool)
	var out []*Group
	for callee := range grp.Rep().Callees[instrID] {
		cg := g.ByContour[callee]
		if cg != nil && !seen[cg] {
			seen[cg] = true
			out = append(out, cg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats summarizes a grouping.
type Stats struct {
	Funcs  int
	Groups int
	// ClonesAdded counts clones beyond one per reached function.
	ClonesAdded int
}

// Stats computes grouping statistics.
func (g *Grouping) Stats() Stats {
	fns := make(map[*ir.Func]bool)
	for _, grp := range g.Groups {
		fns[grp.Fn] = true
	}
	return Stats{Funcs: len(fns), Groups: len(g.Groups), ClonesAdded: len(g.Groups) - len(fns)}
}
