package analysis

import "objinline/internal/ir"

// MonomorphicSites counts dynamic dispatch sites (over all contours) whose
// target set resolved to exactly one function, and the total number of
// dispatch-site/contour pairs — a devirtualization-precision metric.
func (r *Result) MonomorphicSites() (mono, total int) {
	for _, mc := range r.Mcs {
		mc.Fn.Instrs(func(_ *ir.Block, in *ir.Instr) {
			if in.Op != ir.OpCallMethod {
				return
			}
			set := mc.Targets[in.ID]
			if len(set) == 0 {
				return // unreached
			}
			total++
			if len(set) == 1 {
				mono++
			}
		})
	}
	return mono, total
}

// HasTop reports whether the set contains the confusion sentinel.
func (s *TagSet) HasTop() bool {
	_, ok := search(s.tags, tagTopID)
	return ok
}

// TagCells returns the tags interned on each field cell of r's final
// pass: every slot of every object contour and every array contour's
// elements, in contour order.
func (r *Result) TagCells() [][]*Tag {
	var out [][]*Tag
	for _, oc := range r.Objs {
		out = append(out, oc.fieldTags...)
	}
	for _, ac := range r.Arrs {
		out = append(out, ac.elemTags)
	}
	return out
}

// TagPath renders a real tag's sort key with the appender canonicalize
// uses.
func TagPath(t *Tag) string { return string(t.appendPath(nil)) }
