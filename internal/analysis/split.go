package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// updatePolicies inspects the pass's final state for imprecision that more
// context would remove, and turns on the corresponding contour-selection
// discriminators (§3.2.1's demand-driven contour creation, run as
// iterative refinement). It reports whether any policy changed; if none
// did, the analysis has converged.
func (a *analyzer) updatePolicies() bool {
	if a.overflow {
		return false // refusing to refine further; stay conservative
	}
	changed := false

	// Method contours whose in-edges disagree on argument types or tags
	// want their function split.
	for _, mc := range a.mcList {
		if len(mc.InEdges) < 2 {
			continue
		}
		pol := a.policy(mc.Fn)
		nArgs := 0
		for _, e := range mc.InEdges {
			if len(e.Args) > nArgs {
				nArgs = len(e.Args)
			}
		}
		for i := 0; i < nArgs; i++ {
			sigs := make(map[string]bool)
			tagSigs := make(map[string]bool)
			for _, e := range mc.InEdges {
				if i >= len(e.Args) {
					continue
				}
				sigs[classSig(&e.Args[i].TS)] = true
				if a.opts.Tags {
					tagSigs[tagSig(&e.Args[i].Tags)] = true
				}
			}
			isSelf := i == 0 && mc.Fn.Class != nil
			if len(sigs) > 1 {
				if isSelf {
					if !pol.splitByRecvOC {
						pol.splitByRecvOC = true
						changed = true
					}
				} else if !pol.splitBySite {
					pol.splitBySite = true
					changed = true
				}
			}
			if a.opts.Tags && len(tagSigs) > 1 {
				if isSelf {
					if !pol.splitByRecvTag {
						pol.splitByRecvTag = true
						changed = true
					}
				} else if !pol.splitBySite {
					pol.splitBySite = true
					changed = true
				}
			}
		}
	}

	// Receiver-polymorphic methods benefit from per-receiver-contour
	// analysis even with a single in-edge signature (their self state
	// merges several object contours, blurring field types).
	for _, mc := range a.mcList {
		if mc.Fn.Class == nil || len(mc.Regs) == 0 {
			continue
		}
		if len(mc.Regs[0].TS.ObjList()) > 1 {
			pol := a.policy(mc.Fn)
			if !pol.splitByRecvOC {
				pol.splitByRecvOC = true
				changed = true
			}
		}
	}

	// Object contours whose fields hold multiple classes — or multiple tag
	// heads — want creator discrimination (the paper's Figure 7 and
	// Figure 9 splits).
	for _, oc := range a.ocList {
		for i := range oc.Fields {
			fs := &oc.Fields[i]
			if fieldNeedsSplit(a, fs) && !a.classSplit[oc.Class] {
				a.classSplit[oc.Class] = true
				changed = true
			}
		}
	}
	for _, ac := range a.acList {
		uid := siteUID(ac.SiteFn, ac.Site)
		if fieldNeedsSplit(a, &ac.Elem) && !a.arrSplit[uid] {
			a.arrSplit[uid] = true
			changed = true
		}
	}
	return changed
}

// fieldNeedsSplit reports whether a field/element summary mixes classes or
// tag heads.
func fieldNeedsSplit(a *analyzer, fs *VarState) bool {
	if len(fs.TS.Classes()) > 1 {
		return true
	}
	if a.opts.Tags {
		heads, noField, _ := fs.Tags.Heads()
		if len(heads) > 1 || (len(heads) == 1 && noField) {
			return true
		}
	}
	return false
}

// classSig canonicalizes the object content of a type set at object-
// contour granularity — the analysis's "concrete types". Primitives are
// collapsed: they never drive splitting.
func classSig(ts *TypeSet) string {
	ids := make([]int, 0, len(ts.ObjList())+len(ts.ArrList()))
	for _, oc := range ts.ObjList() {
		ids = append(ids, oc.ID*2)
	}
	for _, ac := range ts.ArrList() {
		ids = append(ids, ac.ID*2+1)
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ",")
}

// tagSig canonicalizes a tag set at full tag granularity.
func tagSig(tags *TagSet) string {
	ts := tags.List()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprint(t.ID)
	}
	return strings.Join(parts, ",")
}
