package analysis

// Rep describes how a value is represented at run time once a set of
// fields has been chosen for inlining. A tag resolves to one or more of:
//
//   - the raw object itself (it did not flow from an inlined field);
//   - the container of an inlined field (identified by its FieldKey);
//   - confusion (the analysis cannot pin the representation down).
//
// This is the resolution step behind the paper's decision rule ("a field
// can be inline allocated only if this analysis is able to distinguish
// exactly where the given field is used"): a value that might be either a
// raw object and a container rep — or containers of two different fields —
// cannot be rewritten consistently, so the involved fields are rejected.
type Rep struct {
	Raw      bool
	Fields   map[FieldKey]bool
	Confused bool
}

// Add merges another rep into r.
func (r *Rep) Add(o Rep) {
	r.Raw = r.Raw || o.Raw
	r.Confused = r.Confused || o.Confused
	for k := range o.Fields {
		r.addField(k)
	}
}

func (r *Rep) addField(k FieldKey) {
	if r.Fields == nil {
		r.Fields = make(map[FieldKey]bool)
	}
	r.Fields[k] = true
}

// Unique reports whether the rep is exactly one inlined field's container
// (no raw alternative, no confusion) and returns that field.
func (r *Rep) Unique() (FieldKey, bool) {
	if r.Raw || r.Confused || len(r.Fields) != 1 {
		return FieldKey{}, false
	}
	for k := range r.Fields {
		return k, true
	}
	return FieldKey{}, false
}

// PureRaw reports whether the value is definitely the raw object.
func (r *Rep) PureRaw() bool { return r.Raw && !r.Confused && len(r.Fields) == 0 }

// RepsOf resolves a tag set against a tentative inlining decision:
// inlined(k) reports whether field k is (still) a candidate. Tags of
// non-inlined fields are resolved through the field's recorded content
// tags; cycles in content provenance resolve to Confused.
func (r *Result) RepsOf(tags *TagSet, inlined func(FieldKey) bool) Rep {
	res := &repResolver{result: r, inlined: inlined, memo: make(map[*Tag]Rep), active: make(map[*Tag]bool)}
	var out Rep
	for _, t := range tags.List() {
		out.Add(res.resolve(t))
	}
	return out
}

type repResolver struct {
	result  *Result
	inlined func(FieldKey) bool
	memo    map[*Tag]Rep
	active  map[*Tag]bool
}

func (rr *repResolver) resolve(t *Tag) Rep {
	switch {
	case t == nil:
		return Rep{}
	case t.IsNoField():
		return Rep{Raw: true}
	case t.IsTop():
		return Rep{Confused: true}
	}
	if rep, ok := rr.memo[t]; ok {
		return rep
	}
	if rr.active[t] {
		// Content provenance cycle (e.g. self-referential cons chains):
		// the cycle itself contributes nothing; the finite entry paths
		// into the cycle appear as sibling tags, so the least fixpoint is
		// the empty contribution.
		return Rep{}
	}
	rr.active[t] = true
	defer delete(rr.active, t)

	key := t.Head()
	var rep Rep
	if rr.inlined != nil && rr.inlined(key) {
		// The field is inlined: the value is the container's rep. The
		// container itself is described by the base tag; its identity is
		// what the *transformation* needs, but for representation
		// consistency the field key suffices.
		rep.addField(key)
	} else {
		// Not inlined: the load returns the stored reference, whose rep
		// is the content's provenance.
		var content *TagSet
		if t.AC != nil {
			content = &t.AC.Elem.Tags
		} else if fs := t.OC.FieldState(t.Field); fs != nil {
			content = &fs.Tags
		}
		if content == nil || content.Len() == 0 {
			// Never stored (or analysis gap): reading yields nil at run
			// time; treat as raw.
			rep.Raw = true
		} else {
			for _, ct := range content.List() {
				rep.Add(rr.resolve(ct))
			}
		}
	}
	rr.memo[t] = rep
	return rep
}
