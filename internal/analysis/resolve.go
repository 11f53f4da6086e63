package analysis

import "slices"

// Rep describes how a value is represented at run time once a set of
// fields has been chosen for inlining. A tag resolves to one or more of:
//
//   - the raw object itself (it did not flow from an inlined field);
//   - the container of an inlined field, named by the tag of that field
//     the value was loaded from (its head is the field's FieldKey, its
//     contour and base locate the container);
//   - confusion (the analysis cannot pin the representation down).
//
// This is the resolution step behind the paper's decision rule ("a field
// can be inline allocated only if this analysis is able to distinguish
// exactly where the given field is used"): a value that might be either a
// raw object and a container rep — or containers of two different fields —
// cannot be rewritten consistently, so the involved fields are rejected.
type Rep struct {
	Raw, Confused bool
	// Heads are the inlined-field tags, sorted by ID and duplicate-free.
	// The slice is shared between reps and never written.
	Heads []*Tag
}

// Add merges another rep into r.
func (r *Rep) Add(o Rep) {
	r.Raw = r.Raw || o.Raw
	r.Confused = r.Confused || o.Confused
	r.Heads, _ = union(r.Heads, o.Heads)
}

// Keys returns the distinct field keys of r's heads, in head order.
func (r *Rep) Keys() []FieldKey {
	var keys []FieldKey
	for _, h := range r.Heads {
		if k := h.Head(); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// Unique reports whether the rep is exactly one inlined field's container
// (no raw alternative, no confusion) and returns that field.
func (r *Rep) Unique() (FieldKey, bool) {
	if r.Raw || r.Confused || len(r.Heads) == 0 {
		return FieldKey{}, false
	}
	k := r.Heads[0].Head()
	for _, h := range r.Heads[1:] {
		if h.Head() != k {
			return FieldKey{}, false
		}
	}
	return k, true
}

// PureRaw reports whether the value is definitely the raw object.
func (r *Rep) PureRaw() bool { return r.Raw && !r.Confused && len(r.Heads) == 0 }

// Resolver resolves tags and tag sets to representations under one
// inlining predicate, memoizing each tag's rep across calls. It is the one
// walk over content provenance: the prune loop asks it about every value,
// and the rewrite takes each tag's content closure from it. Tags of
// non-inlined fields resolve through the field's recorded content tags; a
// tag of an inlined field resolves to itself as a head.
//
// Content provenance can be cyclic (a cons cell's next field stores cells
// loaded from next fields). The least fixpoint gives every tag the union
// of the reps of all tags it reaches, so every member of a strongly
// connected component of the content graph shares one rep: the SCC's own
// contributions plus those of the components it reaches. The walk is
// Tarjan's: a tag's rep is memoized only once its component closes, never
// while a back edge to an open ancestor is still unaccounted for — such a
// partial answer would be correct inside one union but would under-report
// heads when read by a later call.
//
// The memo is valid only while inlined answers as it did when each entry
// was computed; a caller that changes the predicate's answers must call
// Reset before resolving again.
type Resolver struct {
	inlined func(FieldKey) bool
	memo    map[*Tag]Rep

	// Tarjan state, empty between calls: open maps each tag whose
	// component has not closed to its position on stack.
	open  map[*Tag]int
	stack []resolveFrame
}

type resolveFrame struct {
	t   *Tag
	rep Rep // the tag's own contribution plus its closed successors'
}

// NewResolver returns a resolver for the inlining predicate inlined (nil
// means no field is inlined).
func (r *Result) NewResolver(inlined func(FieldKey) bool) *Resolver {
	return &Resolver{inlined: inlined, memo: make(map[*Tag]Rep), open: make(map[*Tag]int)}
}

// Reset drops every memoized rep; call it whenever the inlining predicate
// changes its answer for some field.
func (rs *Resolver) Reset() { clear(rs.memo) }

// RepsOf resolves a tag set: the union of its tags' reps.
func (rs *Resolver) RepsOf(tags *TagSet) Rep {
	var out Rep
	for _, t := range tags.List() {
		out.Add(rs.Resolve(t))
	}
	return out
}

// Resolve returns one tag's rep.
func (rs *Resolver) Resolve(t *Tag) Rep {
	rep, ok := rs.closed(t)
	if !ok {
		rs.visit(t)
		rep = rs.memo[t]
	}
	return rep
}

// closed returns the rep of a sentinel or of a tag whose component has
// closed.
func (rs *Resolver) closed(t *Tag) (Rep, bool) {
	switch {
	case t == nil:
		return Rep{}, true
	case t.IsNoField():
		return Rep{Raw: true}, true
	case t.IsTop():
		return Rep{Confused: true}, true
	}
	rep, ok := rs.memo[t]
	return rep, ok
}

// visit is one step of Tarjan's walk from t, which is neither a sentinel
// nor memoized. It returns t's lowlink: the lowest stack position t
// reaches through tags whose components are still open. When that is t's
// own position, t roots a component, and every member is memoized with
// the component's union.
func (rs *Resolver) visit(t *Tag) int {
	pos := len(rs.stack)
	rs.open[t] = pos
	rs.stack = append(rs.stack, resolveFrame{t: t})
	low := pos

	var rep Rep
	if rs.inlined != nil && rs.inlined(t.Head()) {
		// The field is inlined: the value is the container's rep, which
		// t's contour and base locate.
		rep.Heads = []*Tag{t}
	} else if content := contentTags(t); content == nil || content.Len() == 0 {
		// Never stored (or analysis gap): reading yields nil at run
		// time; treat as raw.
		rep.Raw = true
	} else {
		// Not inlined: the load returns the stored reference, whose rep
		// is the content's provenance.
		for _, ct := range content.List() {
			if c, ok := rs.closed(ct); ok {
				rep.Add(c)
				continue
			}
			at, onStack := rs.open[ct]
			if !onStack {
				at = rs.visit(ct)
				if c, ok := rs.memo[ct]; ok {
					rep.Add(c) // ct's component closed under it
					continue
				}
			}
			low = min(low, at)
		}
	}
	rs.stack[pos].rep = rep
	if low < pos {
		return low
	}

	members := rs.stack[pos:]
	scc := rep
	if len(members) > 1 {
		scc = Rep{}
		for _, f := range members {
			scc.Add(f.rep)
		}
	}
	for _, f := range members {
		rs.memo[f.t] = scc
		delete(rs.open, f.t)
	}
	rs.stack = rs.stack[:pos]
	return pos
}

// contentTags returns the provenance of whatever was stored into the
// field (or array element) tag t was loaded from.
func contentTags(t *Tag) *TagSet {
	if t.AC != nil {
		return &t.AC.Elem.Tags
	}
	if fs := t.OC.FieldState(t.Field); fs != nil {
		return &fs.Tags
	}
	return nil
}
