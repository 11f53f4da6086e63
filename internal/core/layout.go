package core

import (
	"fmt"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/ir"
)

// Layout selects how an inlined array lays out its element state.
type Layout int

// Array layouts (§5.3 and the OOPACK discussion in §6.3).
const (
	// LayoutObjectOrder stores each element's fields contiguously
	// (array-of-structs).
	LayoutObjectOrder Layout = iota
	// LayoutParallel stores one column per field (struct-of-arrays — the
	// "parallel arrays (Fortran style)" layout the paper credits for
	// OOPACK's cache behaviour).
	LayoutParallel
)

func (l Layout) String() string {
	if l == LayoutParallel {
		return "parallel"
	}
	return "object-order"
}

// SlotInfo describes where one original field of a class version lives:
// a plain field (Child nil) in its one slot, an inlined field as the child
// version's flattened state starting at Slot.
type SlotInfo struct {
	Slot  int
	Child *ClassVersion
}

// ClassVersion is one restructured variant of a source class: the same
// class may get several versions when a polymorphic inlined field needs
// different containee layouts (§5.1's class cloning).
type ClassVersion struct {
	Orig  *ir.Class
	Shape string
	Super *ClassVersion
	New   *ir.Class

	// Slots maps every original field name (inherited included) to its
	// location in the version's layout.
	Slots map[string]SlotInfo
}

func (v *ClassVersion) String() string {
	return fmt.Sprintf("%s{%s}", v.Orig.Name, v.Shape)
}

// ArrVersion is the inlined layout of one array allocation site.
type ArrVersion struct {
	Key    analysis.FieldKey
	Elem   *ClassVersion
	Layout Layout
}

// versionSpace builds and interns class versions for a decision.
type versionSpace struct {
	res      *analysis.Result
	decision *Decision
	layout   Layout

	byShape map[string]*ClassVersion // shape (it starts with the class name) -> version
	ocShape map[*analysis.ObjContour]string
	list    []*ClassVersion // every version, in creation order
	arrs    map[analysis.FieldKey]*ArrVersion

	// byOC memoizes versionOf. A contour's shape depends only on the
	// decision and subver, both fixed for the space's lifetime, so its
	// version never changes once interned.
	byOC map[*analysis.ObjContour]*ClassVersion

	// subver forces selected object contours into their own class
	// versions — the paper's class cloning "based upon the object
	// contours", demanded when dynamic dispatch must discriminate method
	// clones that layout shape alone cannot separate.
	subver map[*analysis.ObjContour]int

	// conflict records candidates whose child contours disagree on shape;
	// the optimizer rejects them and re-runs the decision.
	conflicts map[analysis.FieldKey]string
}

func newVersionSpace(res *analysis.Result, d *Decision, layout Layout) *versionSpace {
	return &versionSpace{
		res:       res,
		decision:  d,
		layout:    layout,
		byShape:   make(map[string]*ClassVersion),
		ocShape:   make(map[*analysis.ObjContour]string),
		byOC:      make(map[*analysis.ObjContour]*ClassVersion),
		arrs:      make(map[analysis.FieldKey]*ArrVersion),
		conflicts: make(map[analysis.FieldKey]string),
	}
}

// build computes versions for every object contour and every inlined array
// site. It returns false when shape conflicts require candidate rejection
// (recorded in vs.conflicts).
func (vs *versionSpace) build() bool {
	// Deterministic order.
	for _, oc := range vs.res.Objs {
		vs.shapeOf(oc.Class, oc, nil)
	}
	if len(vs.conflicts) > 0 {
		return false
	}
	for _, oc := range vs.res.Objs {
		vs.versionOf(oc)
	}
	if len(vs.conflicts) > 0 {
		return false
	}
	for _, ac := range vs.res.Arrs {
		k := ac.ElemKey()
		if !vs.decision.Has(k) {
			continue
		}
		elems := ac.Elem.TS.ObjList()
		var elemVer *ClassVersion
		for _, child := range elems {
			v := vs.versionOf(child)
			if elemVer == nil {
				elemVer = v
			} else if elemVer != v {
				vs.conflicts[k] = "array elements disagree on inlined layout"
			}
		}
		if elemVer == nil {
			vs.conflicts[k] = "array has no element contour"
			continue
		}
		if prev, ok := vs.arrs[k]; ok {
			if prev.Elem != elemVer {
				vs.conflicts[k] = "array site contours disagree on element layout"
			}
			continue
		}
		vs.arrs[k] = &ArrVersion{Key: k, Elem: elemVer, Layout: vs.layout}
	}
	return len(vs.conflicts) == 0
}

// shapeOf computes the canonical layout shape of class c's part of an
// object contour's layout: the class name plus, for each inlined field in
// layout order, the child shape. c is oc.Class or one of its ancestors,
// whose fields are a prefix of oc.Class.Fields; only oc.Class's shape
// carries oc's subversion, and only it is memoized.
func (vs *versionSpace) shapeOf(c *ir.Class, oc *analysis.ObjContour, path []*analysis.ObjContour) string {
	whole := c == oc.Class
	if s, ok := vs.ocShape[oc]; ok && whole {
		return s
	}
	for _, p := range path {
		if p == oc {
			// Containment cycle at the contour level; the class-level
			// check should have caught it, but stay safe.
			return "<cycle>"
		}
	}
	path = append(path, oc)
	var b strings.Builder
	b.WriteString(c.Name)
	for _, f := range c.Fields {
		k := analysis.FieldKey{Class: f.Owner, Name: f.Name}
		if !vs.decision.Has(k) {
			continue
		}
		st := &oc.Fields[f.Slot]
		childShape := ""
		for _, child := range st.TS.ObjList() {
			cs := vs.shapeOf(child.Class, child, path)
			if childShape == "" {
				childShape = cs
			} else if childShape != cs {
				vs.conflicts[k] = "containee contours disagree on layout shape"
			}
		}
		fmt.Fprintf(&b, "|%s=%s", f.Name, childShape)
	}
	if !whole {
		return b.String()
	}
	if n := vs.subver[oc]; n != 0 {
		fmt.Fprintf(&b, "~%d", n)
	}
	s := b.String()
	vs.ocShape[oc] = s
	return s
}

// versionOf interns the class version of an object contour.
func (vs *versionSpace) versionOf(oc *analysis.ObjContour) *ClassVersion {
	if v, ok := vs.byOC[oc]; ok {
		return v
	}
	v := vs.versionFor(oc.Class, oc)
	vs.byOC[oc] = v
	return v
}

// versionFor builds the version of class c (oc.Class or an ancestor) for
// c's part of oc's layout, recursively so a subclass version extends its
// superclass version.
func (vs *versionSpace) versionFor(c *ir.Class, oc *analysis.ObjContour) *ClassVersion {
	shape := vs.shapeOf(c, oc, nil)
	if v, ok := vs.byShape[shape]; ok {
		return v
	}
	v := &ClassVersion{Orig: c, Shape: shape, Slots: make(map[string]SlotInfo)}
	vs.byShape[shape] = v

	newClass := &ir.Class{
		Name:    versionName(c.Name, len(vs.list)),
		Methods: make(map[string]*ir.Func),
		Origin:  c,
	}
	v.New = newClass
	if c.Super != nil {
		v.Super = vs.versionFor(c.Super, oc)
		newClass.Super = v.Super.New
		newClass.Fields = append(newClass.Fields, v.Super.New.Fields...)
		for name, si := range v.Super.Slots {
			v.Slots[name] = si
		}
	}
	// This class's own fields.
	for _, f := range c.Fields {
		if f.Owner != c {
			continue
		}
		slot := len(newClass.Fields)
		k := analysis.FieldKey{Class: c, Name: f.Name}
		var childVer *ClassVersion
		if vs.decision.Has(k) {
			for _, child := range oc.Fields[f.Slot].TS.ObjList() {
				cv := vs.versionOf(child)
				if childVer == nil {
					childVer = cv
				} else if childVer != cv {
					vs.conflicts[k] = "containee contours disagree on layout"
				}
			}
		}
		v.Slots[f.Name] = SlotInfo{Slot: slot, Child: childVer}
		if childVer == nil {
			// A plain field, or a candidate with no content in this
			// contour (it should have been filtered; degrade to a plain
			// slot).
			newClass.Fields = append(newClass.Fields, &ir.Field{Name: f.Name, Slot: slot, Owner: newClass})
			continue
		}
		for _, cf := range childVer.New.Fields {
			newClass.Fields = append(newClass.Fields, &ir.Field{
				Name: f.Name + "$" + cf.Name, Slot: len(newClass.Fields), Owner: newClass, Synthetic: true,
			})
		}
	}
	vs.list = append(vs.list, v)
	return v
}

func versionName(base string, n int) string {
	return fmt.Sprintf("%s'%d", base, n)
}
