package analysis

import (
	"bytes"
	"slices"
	"sort"
)

// canonicalize renumbers the pass's contours and tags from
// order-independent sort keys, sorts every contour's in-edge list, and
// re-sorts every value set by the new IDs.
// It runs at the end of every pass, for both solvers, before
// updatePolicies reads the pass's state.
//
// Why it exists: creation-order IDs record the order the solver happened
// to discover contours and intern tags in, and that order leaks into
// everything numbered from them — the clone partition, the class
// versions it names (Job'4 vs Job'5), and, through the layout of those
// classes, the modeled cycle counts. Every contour and tag therefore
// carries an intrinsic identity — the context key it was requested
// under, hashed with its function or site (ctxHash, Tag.uid) — and IDs
// are assigned here by sorting on those identities:
//
//   - method contours by (function ID, context key). Unique: the contour
//     table is keyed by exactly that pair.
//   - object and array contours by (allocation site UID, context key).
//   - tags by their rendered path (appendPath after contour renumbering,
//     so the rendering uses canonical contour IDs). The rendering walks the
//     full (holder contour, field, base) chain, so it is injective over
//     interned tags; the NoField/Top sentinels keep their fixed IDs 0/1.
//   - each contour's InEdges by (caller contour ID, call instruction ID),
//     unique because the edge table is keyed by caller/instruction/callee.
//
// So contour, tag, clone and class numbering are a function of the
// analysis result alone: a change to the solver's evaluation order that
// reaches the same fixpoint cannot renumber the optimized program.
//
// Everything downstream of a pass reads canonical IDs: updatePolicies'
// class and tag signatures, TagSet.List (sorted by ID), the Result dump,
// and the clone partition. The per-pass lookup tables (mcs/ocs/acs, whose
// creator-split alloc keys embed in-pass creation IDs) are never read
// after the pass ends and are cleared by resetPass.
func (a *analyzer) canonicalize() {
	sort.Slice(a.mcList, func(i, j int) bool {
		x, y := a.mcList[i], a.mcList[j]
		if x.Fn.ID != y.Fn.ID {
			return x.Fn.ID < y.Fn.ID
		}
		return x.Key < y.Key
	})
	for i, mc := range a.mcList {
		mc.ID = i
	}

	sort.Slice(a.ocList, func(i, j int) bool {
		x, y := a.ocList[i], a.ocList[j]
		xs, ys := siteUID(x.SiteFn, x.Site), siteUID(y.SiteFn, y.Site)
		if xs != ys {
			return xs < ys
		}
		return x.Key < y.Key
	})
	for i, oc := range a.ocList {
		oc.ID = i
	}

	sort.Slice(a.acList, func(i, j int) bool {
		x, y := a.acList[i], a.acList[j]
		xs, ys := siteUID(x.SiteFn, x.Site), siteUID(y.SiteFn, y.Site)
		if xs != ys {
			return xs < ys
		}
		return x.Key < y.Key
	})
	for i, ac := range a.acList {
		ac.ID = i
	}

	// Tags, after contours so their paths render canonical contour IDs.
	// Each path is appended once, into one buffer reused across passes.
	tt := a.tt
	tt.keyBuf, tt.keyed = tt.keyBuf[:0], tt.keyed[:0]
	for _, t := range tt.all {
		lo := len(tt.keyBuf)
		tt.keyBuf = t.appendPath(tt.keyBuf)
		tt.keyed = append(tt.keyed, keyedTag{t, lo, len(tt.keyBuf)})
	}
	slices.SortFunc(tt.keyed, func(x, y keyedTag) int {
		return bytes.Compare(tt.keyBuf[x.lo:x.hi], tt.keyBuf[y.lo:y.hi])
	})
	for i, k := range tt.keyed {
		k.t.ID = i + 2 // 0 and 1 are the NoField/Top sentinels
	}

	for _, mc := range a.mcList {
		sort.Slice(mc.InEdges, func(i, j int) bool {
			x, y := mc.InEdges[i], mc.InEdges[j]
			if x.From.ID != y.From.ID {
				return x.From.ID < y.From.ID
			}
			return x.Instr.ID < y.Instr.ID
		})
	}

	a.resortStates()
}
