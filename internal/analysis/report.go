package analysis

import (
	"fmt"
	"sort"
	"strings"

	"objinline/internal/ir"
)

// Stats summarizes analysis cost, the Figure 16 metric, plus the solver's
// work counters. The JSON tags are the public API's wire shape
// (objinline.AnalysisStats is this type).
type Stats struct {
	ReachedFuncs   int `json:"reached_funcs"`
	MethodContours int `json:"method_contours"`
	ObjContours    int `json:"obj_contours"`
	ArrContours    int `json:"arr_contours"`
	Passes         int `json:"passes"`
	// ContoursPerMethod is MethodContours / ReachedFuncs.
	ContoursPerMethod float64 `json:"contours_per_method"`
	// Work counts the solver's effort across all passes.
	Work WorkStats `json:"work"`
}

// Stats computes the contour statistics of the result.
func (r *Result) Stats() Stats {
	s := Stats{
		ReachedFuncs:   len(r.Contours),
		MethodContours: len(r.Mcs),
		ObjContours:    len(r.Objs),
		ArrContours:    len(r.Arrs),
		Passes:         r.Passes,
		Work:           r.Work,
	}
	if s.ReachedFuncs > 0 {
		s.ContoursPerMethod = float64(s.MethodContours) / float64(s.ReachedFuncs)
	}
	return s
}

// ObjectFields enumerates every (declaring class, field) pair whose
// abstract state ever holds an object or array — the denominator of the
// paper's Figure 14 ("fields which hold objects").
func (r *Result) ObjectFields() []FieldKey {
	seen := make(map[FieldKey]bool)
	var out []FieldKey
	for _, oc := range r.Objs {
		for _, f := range oc.Class.Fields {
			st := &oc.Fields[f.Slot]
			if !st.TS.HasObjects() && !st.TS.HasArrays() {
				continue
			}
			k := FieldKey{Class: f.Owner, Name: f.Name}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ObjectArraySites enumerates the array allocation sites whose elements
// ever hold objects (candidates for array-element inlining).
func (r *Result) ObjectArraySites() []FieldKey {
	seen := make(map[FieldKey]bool)
	var out []FieldKey
	for _, ac := range r.Arrs {
		if !ac.Elem.TS.HasObjects() {
			continue
		}
		k := ac.ElemKey()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASiteUID < out[j].ASiteUID })
	return out
}

// String renders a human-readable dump of the result (used by `oic
// analyze` and tests).
func (r *Result) String() string {
	var b strings.Builder
	st := r.Stats()
	fmt.Fprintf(&b, "passes=%d contours=%d objs=%d arrs=%d funcs=%d (%.2f contours/method)\n",
		st.Passes, st.MethodContours, st.ObjContours, st.ArrContours, st.ReachedFuncs, st.ContoursPerMethod)
	fns := make([]*ir.Func, 0, len(r.Contours))
	for fn := range r.Contours {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].ID < fns[j].ID })
	for _, fn := range fns {
		for _, mc := range r.Contours[fn] {
			fmt.Fprintf(&b, "contour %s\n", mc)
			for i := range mc.Regs {
				st := &mc.Regs[i]
				if st.TS.IsEmpty() && st.Tags.Len() == 0 {
					continue
				}
				fmt.Fprintf(&b, "  r%d: %s", i, st.TS.String())
				if r.Opts.Tags && st.Tags.Len() > 0 {
					fmt.Fprintf(&b, " tags=%s", st.Tags.String())
				}
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "  ret: %s\n", mc.Ret.TS.String())
		}
	}
	for _, oc := range r.Objs {
		fmt.Fprintf(&b, "object %s\n", oc)
		for _, f := range oc.Class.Fields {
			st := &oc.Fields[f.Slot]
			if st.TS.IsEmpty() {
				continue
			}
			fmt.Fprintf(&b, "  .%s: %s", f.Name, st.TS.String())
			if r.Opts.Tags && st.Tags.Len() > 0 {
				fmt.Fprintf(&b, " tags=%s", st.Tags.String())
			}
			b.WriteString("\n")
		}
	}
	for _, ac := range r.Arrs {
		fmt.Fprintf(&b, "array %s elem=%s", ac, ac.Elem.TS.String())
		if r.Opts.Tags && ac.Elem.Tags.Len() > 0 {
			fmt.Fprintf(&b, " tags=%s", ac.Elem.Tags.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}
