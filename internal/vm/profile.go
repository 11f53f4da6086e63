package vm

// The site profiler: optional per-run attribution of allocations, field
// traffic, and cache misses to allocation sites and Class.field paths.
// The payoff harness (internal/bench) joins two of these — one from an
// inlining-on run, one from an inlining-off run — against the optimizer's
// decision to measure what each inlined field actually saved.
//
// Disabled profiling is free: the machine calls the note* hooks
// unconditionally, every hook is nil-receiver-safe, and the nil path
// performs no work and no allocations (asserted by AllocsPerRun tests,
// like the trace sink's contract). Attribution happens at interned
// per-instruction records on the hot path; the exported Sites/FieldPaths
// views aggregate and sort only when asked.
//
// Cache misses are partitioned exactly: every simulated memory access is
// either an object field access (attributed to a Class.field path and to
// the object's allocation site), an element access into array storage
// (attributed to the array's allocation site), or a dispatch header touch
// (attributed to the dispatch bucket). The per-path misses, per-array-site
// element misses, and dispatch misses therefore sum to the run's
// CacheMisses counter — the identity the payoff reconciliation tests pin.

import (
	"sort"

	"objinline/internal/ir"
	"objinline/internal/lang/source"
)

// Profile accumulates one run's attribution. Create with NewProfile, pass
// via Options.Profile, and read the aggregated views after Run. A nil
// *Profile is valid everywhere and records nothing.
type Profile struct {
	byInstr map[*ir.Instr]*siteRec
	recs    []*siteRec // recs[i] has index i+1 (0 marks "no site")
	fields  map[fieldPathKey]*fieldRec

	dispatchReads  uint64
	dispatchMisses uint64
	heapPeak       uint64
}

// NewProfile returns an empty profile ready to attach to a run.
func NewProfile() *Profile {
	return &Profile{
		byInstr: make(map[*ir.Instr]*siteRec),
		fields:  make(map[fieldPathKey]*fieldRec),
	}
}

// siteRec is the hot-path record of one allocation instruction.
type siteRec struct {
	pos   source.Pos
	class *ir.Class // allocated class; nil for plain arrays
	array bool
	idx   int32 // 1-based index in recs, the tag stored on objects/arrays

	allocs  uint64 // heap allocations
	stacked uint64 // stack-elided allocations
	slots   uint64 // heap slots
	bytes   uint64 // heap bytes, allocator-bin padded

	accesses uint64 // memory accesses into this site's storage
	misses   uint64 // cache misses among them
}

// fieldPathKey identifies one field path at runtime: the declaring class
// (a version class while the run executes; aggregation resolves origins)
// and the slot's layout name (synthetic names like "p$x" included).
type fieldPathKey struct {
	owner *ir.Class
	name  string
}

type fieldRec struct {
	reads  uint64
	writes uint64
	misses uint64
}

// siteOf interns the record for one allocation instruction.
func (p *Profile) siteOf(in *ir.Instr, class *ir.Class, array bool) *siteRec {
	if r, ok := p.byInstr[in]; ok {
		return r
	}
	r := &siteRec{pos: in.Pos, class: class, array: array}
	p.byInstr[in] = r
	p.recs = append(p.recs, r)
	r.idx = int32(len(p.recs))
	return r
}

// noteObjAlloc records one object allocation at in and tags o with its
// site so later field accesses can find it.
func (p *Profile) noteObjAlloc(in *ir.Instr, o *Object, stacked bool, size uint64) {
	if p == nil {
		return
	}
	r := p.siteOf(in, o.Class, false)
	o.site = r.idx
	if stacked {
		r.stacked++
		return
	}
	r.allocs++
	r.slots += uint64(len(o.Slots))
	r.bytes += size
}

// noteArrAlloc records one array allocation at in and tags a with its
// site so element accesses can find it.
func (p *Profile) noteArrAlloc(in *ir.Instr, a *Array, slots int, size uint64) {
	if p == nil {
		return
	}
	r := p.siteOf(in, a.Class, true)
	a.site = r.idx
	r.allocs++
	r.slots += uint64(slots)
	r.bytes += size
}

// noteFieldAccess records one object field access: slot is the resolved
// layout slot of o.Class. Attributed to the Class.field path and, via the
// object's site tag, to the allocation site.
func (p *Profile) noteFieldAccess(o *Object, slot int, write, miss bool) {
	if p == nil {
		return
	}
	lf := o.Class.Fields[slot]
	owner := lf.Owner
	if owner == nil {
		owner = o.Class
	}
	fr := p.fields[fieldPathKey{owner, lf.Name}]
	if fr == nil {
		fr = &fieldRec{}
		p.fields[fieldPathKey{owner, lf.Name}] = fr
	}
	if write {
		fr.writes++
	} else {
		fr.reads++
	}
	if miss {
		fr.misses++
	}
	if s := o.site; s > 0 {
		r := p.recs[s-1]
		r.accesses++
		if miss {
			r.misses++
		}
	}
}

// noteElemAccess records one access into array element storage (a plain
// element slot or an inlined element's interior slot), attributed to the
// array's allocation site.
func (p *Profile) noteElemAccess(a *Array, miss bool) {
	if p == nil {
		return
	}
	if s := a.site; s > 0 {
		r := p.recs[s-1]
		r.accesses++
		if miss {
			r.misses++
		}
	}
}

// noteDispatch records one dispatch header touch.
func (p *Profile) noteDispatch(miss bool) {
	if p == nil {
		return
	}
	p.dispatchReads++
	if miss {
		p.dispatchMisses++
	}
}

// finish records the run's final heap extent (the allocator bumps
// addresses monotonically, so the final extent is the high-water mark).
func (p *Profile) finish(heapBytes uint64) {
	if p == nil {
		return
	}
	if heapBytes > p.heapPeak {
		p.heapPeak = heapBytes
	}
}

// SiteProfile is one allocation site's aggregated attribution: all records
// with the same source position and source-level class merged (clones of
// the same source instruction report as one site).
type SiteProfile struct {
	// Pos is the allocation instruction's source position ("file:line:col").
	Pos string `json:"pos"`
	// Class is the source-level class name; empty for plain arrays.
	Class string `json:"class,omitempty"`
	// Array marks array allocation sites.
	Array bool `json:"array,omitempty"`

	// Allocs counts heap allocations; StackAllocs counts stack-elided
	// temporaries (only the inlining transformation produces those).
	Allocs      uint64 `json:"allocs"`
	StackAllocs uint64 `json:"stack_allocs,omitempty"`
	// Slots and Bytes are the heap slots and allocator-bin-padded bytes
	// the site's heap allocations consumed.
	Slots uint64 `json:"slots"`
	Bytes uint64 `json:"bytes"`

	// Accesses and Misses count simulated memory accesses into this
	// site's storage: field slots for object sites, element storage for
	// array sites.
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

// FieldProfile is one Class.field path's aggregated traffic, keyed by the
// source-level declaring class. Restructured container classes report
// their synthetic slots (e.g. "p$x") under the container's source name.
type FieldProfile struct {
	Class  string `json:"class"`
	Field  string `json:"field"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Misses uint64 `json:"misses"`
}

// Sites returns the aggregated allocation-site table, sorted by source
// position, then class name.
func (p *Profile) Sites() []SiteProfile {
	if p == nil {
		return nil
	}
	type aggKey struct {
		pos   source.Pos
		class string
		array bool
	}
	agg := make(map[aggKey]*SiteProfile)
	var order []aggKey
	for _, r := range p.recs {
		// Source-level class names, so profiles from differently
		// specialized runs of the same program join on the same names.
		k := aggKey{pos: r.pos, array: r.array}
		if r.class != nil {
			k.class = r.class.Source().Name
		}
		s := agg[k]
		if s == nil {
			s = &SiteProfile{Pos: r.pos.String(), Class: k.class, Array: r.array}
			agg[k] = s
			order = append(order, k)
		}
		s.Allocs += r.allocs
		s.StackAllocs += r.stacked
		s.Slots += r.slots
		s.Bytes += r.bytes
		s.Accesses += r.accesses
		s.Misses += r.misses
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.pos != b.pos {
			if a.pos.File != b.pos.File {
				return a.pos.File < b.pos.File
			}
			if a.pos.Line != b.pos.Line {
				return a.pos.Line < b.pos.Line
			}
			return a.pos.Col < b.pos.Col
		}
		if a.class != b.class {
			return a.class < b.class
		}
		return !a.array && b.array
	})
	out := make([]SiteProfile, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	return out
}

// FieldPaths returns the aggregated field-path table, sorted by class then
// field name.
func (p *Profile) FieldPaths() []FieldProfile {
	if p == nil {
		return nil
	}
	type aggKey struct{ class, field string }
	agg := make(map[aggKey]*FieldProfile)
	for k, r := range p.fields {
		ak := aggKey{k.owner.Source().Name, k.name}
		f := agg[ak]
		if f == nil {
			f = &FieldProfile{Class: ak.class, Field: ak.field}
			agg[ak] = f
		}
		f.Reads += r.reads
		f.Writes += r.writes
		f.Misses += r.misses
	}
	out := make([]FieldProfile, 0, len(agg))
	for _, f := range agg {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Class != out[j].Class {
			return out[i].Class < out[j].Class
		}
		return out[i].Field < out[j].Field
	})
	return out
}

// RunProfile is a profile's aggregated, JSON-ready view: what one
// profiled run reports and what the payoff join consumes.
type RunProfile struct {
	// Sites is the allocation-site table, ordered by source position.
	Sites []SiteProfile `json:"sites"`
	// Fields is the per-Class.field traffic table.
	Fields []FieldProfile `json:"fields"`
	// DispatchAccesses/DispatchMisses count dynamic dispatches' receiver-
	// header touches and how many of them missed the cache.
	DispatchAccesses uint64 `json:"dispatch_accesses"`
	DispatchMisses   uint64 `json:"dispatch_misses"`
	// HeapPeakBytes is the run's heap-footprint high-water mark.
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
}

// Summary aggregates the profile into its reported view; nil for a nil
// profile.
func (p *Profile) Summary() *RunProfile {
	if p == nil {
		return nil
	}
	return &RunProfile{
		Sites:            p.Sites(),
		Fields:           p.FieldPaths(),
		DispatchAccesses: p.dispatchReads,
		DispatchMisses:   p.dispatchMisses,
		HeapPeakBytes:    p.heapPeak,
	}
}
