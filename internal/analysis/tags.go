package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"objinline/internal/ir"
)

// Tag marks where a value came from, per the paper's use-specialization
// analysis (§4.1):
//
//	NoField            — the value did not flow from a field access;
//	MakeTag(f, base)   — the value was loaded from field f of an object
//	                     whose own origin is base.
//
// The field component identifies the field *instance*: the object or array
// contour that holds it plus the field name (the paper's "special values
// that denote the contents of the field"). Tags are interned; pointer
// equality is tag equality. Tag depth is capped: deeper tags collapse to
// Top ("confused"), which conservatively blocks inlining.
type Tag struct {
	ID    int
	OC    *ObjContour // field of an object contour (nil for array/base tags)
	AC    *ArrContour // element of an array contour
	Field string      // field name; "[]" for array elements
	Base  *Tag        // origin of the holder; nil for NoField/Top
	Depth int

	// uid is the tag's intrinsic identity hash, chained from the holder
	// contour's identity hash, the field name, and the base tag's uid. It
	// never depends on creation order, so contour keys derived from it
	// (the "|t" component in bindReceiverCall) are independent of the
	// order tags were interned in.
	uid uint64
}

// Sentinel tag IDs.
const (
	tagNoFieldID = 0
	tagTopID     = 1
)

// IsNoField reports whether t is the NoField sentinel.
func (t *Tag) IsNoField() bool { return t.ID == tagNoFieldID }

// IsTop reports whether t is the confusion sentinel.
func (t *Tag) IsTop() bool { return t.ID == tagTopID }

// Head returns the last field in the tag, i.e. Head(MakeTag(f, b)) = f,
// rendered as a FieldKey. Sentinels return the zero FieldKey.
func (t *Tag) Head() FieldKey {
	if t.IsNoField() || t.IsTop() {
		return FieldKey{}
	}
	if t.AC != nil {
		return t.AC.ElemKey()
	}
	if f := t.OC.Class.FieldNamed(t.Field); f != nil {
		return FieldKey{Class: f.Owner, Name: t.Field}
	}
	return FieldKey{Class: t.OC.Class, Name: t.Field}
}

// HeadOC returns the object contour holding the head field (nil for array
// or sentinel tags).
func (t *Tag) HeadOC() *ObjContour { return t.OC }

// HeadAC returns the array contour for array-element tags.
func (t *Tag) HeadAC() *ArrContour { return t.AC }

// String renders the tag as a field path.
func (t *Tag) String() string {
	switch {
	case t == nil:
		return "<nil>"
	case t.IsNoField():
		return "NoField"
	case t.IsTop():
		return "Top"
	}
	return string(t.appendPath(nil))
}

// appendPath appends the field path of a real tag or Top to b: the
// holders from the outermost base in, joined by "<-", each rendered as
// Class#ID.field or arr#ID[] (a Top base as "Top"; the NoField base adds
// nothing). canonicalize sorts tags by this rendering.
func (t *Tag) appendPath(b []byte) []byte {
	if t.IsTop() {
		return append(b, "Top"...)
	}
	if x := t.Base; x != nil && !x.IsNoField() {
		b = append(x.appendPath(b), "<-"...)
	}
	if t.AC != nil {
		b = append(b, "arr#"...)
		b = strconv.AppendInt(b, int64(t.AC.ID), 10)
		return append(b, "[]"...)
	}
	b = append(b, t.OC.Class.Name...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(t.OC.ID), 10)
	b = append(b, '.')
	return append(b, t.Field...)
}

// FieldKey identifies a source-level field independent of contours: the
// declaring class plus the field name, or one array allocation site's
// elements. It is the unit at which inlinability is decided.
type FieldKey struct {
	Class    *ir.Class // declaring class; nil for array elements
	Name     string
	Array    bool
	ASiteUID int // array allocation site UID (Array only)
}

// IsZero reports whether k identifies nothing (sentinel tags).
func (k FieldKey) IsZero() bool { return k.Class == nil && !k.Array }

// String renders the key.
func (k FieldKey) String() string {
	if k.Array {
		return fmt.Sprintf("arr@%d[]", k.ASiteUID)
	}
	if k.Class == nil {
		return "<none>"
	}
	return k.Class.Name + "." + k.Name
}

// tagTable interns tags for one analysis pass. A tag is interned on the
// field cell it denotes: each slot of an object contour and each array
// contour's element summary keeps the list of tags made from it, one per
// base, so interning is a short scan on Base (a cell sees few distinct
// bases) instead of a hash lookup.
type tagTable struct {
	noField *Tag
	all     []*Tag // every interned tag, in creation (ID) order
	maxDep  int

	// canonicalize's reused storage: every tag's rendered path, appended
	// into one buffer, and the tags with their spans of it.
	keyBuf []byte
	keyed  []keyedTag
}

// keyedTag is a tag with the span of tagTable.keyBuf holding its path.
type keyedTag struct {
	t      *Tag
	lo, hi int
}

// Sentinel intrinsic identity hashes (Tag.uid); real tags chain theirs
// from contour hashes, which never collide with these small constants.
const (
	tagNoFieldUID = 1
	tagTopUID     = 2
)

func newTagTable(maxDepth int) *tagTable {
	return &tagTable{
		noField: &Tag{ID: tagNoFieldID, uid: tagNoFieldUID},
		maxDep:  maxDepth,
	}
}

// reset empties the table for the next pass, keeping its storage. The
// per-cell lists live on the pass's contours, which the next pass
// replaces.
func (tt *tagTable) reset() {
	clear(tt.all)
	tt.all = tt.all[:0]
}

// makeObj builds MakeTag((oc, field), base) for the field in the given
// slot of oc (a lowered class's slots are its field indices), collapsing
// to Top past the depth cap.
func (tt *tagTable) makeObj(oc *ObjContour, slot int, base *Tag) *Tag {
	if oc.fieldTags == nil {
		oc.fieldTags = make([][]*Tag, len(oc.Fields))
	}
	return tt.make(&oc.fieldTags[slot], oc, nil, oc.Class.Fields[slot].Name, base)
}

// makeArr builds the tag for an element of array contour ac.
func (tt *tagTable) makeArr(ac *ArrContour, base *Tag) *Tag {
	return tt.make(&ac.elemTags, nil, ac, "[]", base)
}

// make interns the tag for one field cell and base in the cell's list.
func (tt *tagTable) make(cell *[]*Tag, oc *ObjContour, ac *ArrContour, field string, base *Tag) *Tag {
	depth := 1
	if base != nil && !base.IsNoField() {
		if base.IsTop() {
			depth = tt.maxDep // saturated, but the head stays known
		} else {
			depth = base.Depth + 1
		}
	}
	if depth > tt.maxDep {
		// Collapse only the *base* past the depth cap: the head field must
		// stay known or every deep access would conservatively block all
		// inlining. A Top base means "container identity unknown", which
		// rejects only candidates that need that identity.
		base = sharedTop
		depth = tt.maxDep
	}
	for _, t := range *cell {
		if t.Base == base {
			return t
		}
	}
	holder := uint64(0)
	if oc != nil {
		holder = oc.ctxHash
	} else if ac != nil {
		holder = ac.ctxHash
	}
	baseUID := uint64(0)
	if base != nil {
		baseUID = base.uid
	}
	uid := hashU64(hashStr(hashU64(hashSeed(3), holder), field), baseUID)
	// IDs 0 and 1 are the NoField/Top sentinels.
	t := &Tag{ID: len(tt.all) + 2, OC: oc, AC: ac, Field: field, Base: base, Depth: depth, uid: uid}
	*cell = append(*cell, t)
	tt.all = append(tt.all, t)
	return t
}

// TagSet is a set of tags, capped in size: overflowing sets collapse to
// {Top} (confused), mirroring the paper's conservative treatment of
// convergent data-flow paths it cannot split. The tags are a value set
// (see valueset.go): sorted by ID and copy-on-write.
type TagSet struct {
	tags []*Tag
}

// maxTagSet bounds tag sets before collapsing to Top.
const maxTagSet = 12

// Add inserts a tag, reporting change. Past the size cap, new tags are
// summarized by the Top sentinel while established members keep their
// identity (their heads remain known to the decision).
func (s *TagSet) Add(t *Tag) bool {
	if t == nil {
		return false
	}
	if s.Has(t) {
		return false
	}
	if len(s.tags) >= maxTagSet && !t.IsTop() {
		return s.Add(topOf(t))
	}
	s.tags, _ = insert(s.tags, t)
	return true
}

// sharedTop is the Top sentinel: every tag table uses it, so Top is one
// pointer across passes and sets.
var sharedTop = &Tag{ID: tagTopID, uid: tagTopUID}

// topOf returns the Top sentinel that t collapses to (t itself if it is
// Top).
func topOf(t *Tag) *Tag {
	if t.IsTop() {
		return t
	}
	return sharedTop
}

// Union adds all of o, reporting change; it allocates only when o holds
// tags s lacks. When the result stays within the cap it is the exact set
// union. When it could exceed the cap, o's tags are added in ascending ID
// order, so which members establish themselves before the cap is
// deterministic.
func (s *TagSet) Union(o *TagSet) bool {
	if s == o {
		return false
	}
	n := missing(s.tags, o.tags)
	if n == 0 {
		return false
	}
	if len(s.tags)+n <= maxTagSet {
		s.tags = merge(s.tags, o.tags, n)
		return true
	}
	changed := false
	for _, t := range o.tags {
		if s.Add(t) {
			changed = true
		}
	}
	return changed
}

// Len returns the number of tags.
func (s *TagSet) Len() int { return len(s.tags) }

// Has reports membership.
func (s *TagSet) Has(t *Tag) bool {
	_, ok := search(s.tags, t.ID)
	return ok
}

// List returns the tags in ascending ID order. The slice is the set's
// own storage: callers must not modify it.
func (s *TagSet) List() []*Tag { return s.tags }

// Heads returns the distinct head field keys of the set's real tags,
// plus flags for NoField and Top members.
func (s *TagSet) Heads() (heads []FieldKey, noField, top bool) {
	seen := make(map[FieldKey]bool)
	for _, t := range s.tags {
		switch {
		case t.IsNoField():
			noField = true
		case t.IsTop():
			top = true
		default:
			k := t.Head()
			if !seen[k] {
				seen[k] = true
				heads = append(heads, k)
			}
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i].String() < heads[j].String() })
	return heads, noField, top
}

// String renders the set.
func (s *TagSet) String() string {
	parts := make([]string, 0, len(s.tags))
	for _, t := range s.tags {
		parts = append(parts, t.String())
	}
	return "{" + strings.Join(parts, " ") + "}"
}
