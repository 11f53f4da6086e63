package bench

// Per-field payoff attribution: joins the site/field profiles of an
// inlining-on run and an inlining-off run of the same program against the
// optimizer's decision, crediting the measured savings — allocations
// eliminated, bytes saved, cache misses avoided — to the individual
// inlined fields that produced them.
//
// The attribution leans on three exact partitions:
//
//   - Allocations: both profiles' site tables sum to the runs' aggregate
//     allocation counters, so assigning each joined site's delta to a
//     field (or to the unattributed bucket) keeps the per-field numbers
//     summing to the aggregate delta exactly.
//   - Misses: each run partitions cache misses into field paths, array
//     element sites, and dispatch header touches (see vm.Profile), so
//     assigning every path and array site to a bucket preserves the sum.
//   - Provenance: stack-elided sites come from core.Result.StackProvenance
//     (which field consumed the site's objects), container growth from the
//     restructured classes' synthetic slots, and child-class traffic from
//     the analysis contours of the inlined fields.

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"objinline/internal/analysis"
	"objinline/internal/ir"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

// FieldPayoff is one inlined field's measured payoff (off-run minus
// on-run, so positive numbers are savings).
type FieldPayoff struct {
	// Field is the decision key: "Class.field" or "arr@UID[]".
	Field string `json:"field"`
	// ArraySite is the array key's allocation-site position, empty for
	// object fields.
	ArraySite string `json:"array_site,omitempty"`

	// AllocsEliminated counts heap allocations the field removed (stack-
	// elided temporaries plus merged children).
	AllocsEliminated int64 `json:"allocs_eliminated"`
	// BytesSaved is the net heap-byte saving: eliminated allocations
	// minus the container/array growth the inlined state costs.
	BytesSaved int64 `json:"bytes_saved"`
	// MissesAvoided is the net cache-miss saving across the field's
	// paths, its child classes' paths, and (for array keys) the array's
	// element storage.
	MissesAvoided int64 `json:"misses_avoided"`

	// PredictedBytesPerAlloc is the static prediction from the allocator
	// geometry: the child's padded heap footprint minus the slots the
	// container grows by. Zero for array keys.
	PredictedBytesPerAlloc int64 `json:"predicted_bytes_per_alloc,omitempty"`
	// MeasuredBytesPerAlloc is BytesSaved / AllocsEliminated.
	MeasuredBytesPerAlloc float64 `json:"measured_bytes_per_alloc,omitempty"`
}

// ProgramPayoff is one benchmark's per-field payoff table plus the
// aggregate deltas the table reconciles against.
type ProgramPayoff struct {
	Program string `json:"program"`
	Scale   string `json:"scale"`

	// Fields has one row per inlined field, in decision-key order.
	Fields []FieldPayoff `json:"fields"`
	// Unattributed collects deltas no field claimed (sites the provenance
	// does not cover, paths of classes that are not inlining children).
	Unattributed FieldPayoff `json:"unattributed"`
	// DispatchMissesAvoided is the dispatch-header share of the miss
	// delta (devirtualization's effect, identical in both optimized
	// modes, so usually near zero).
	DispatchMissesAvoided int64 `json:"dispatch_misses_avoided"`

	// Aggregate counter deltas (off minus on) the rows sum to.
	AllocsDelta   int64 `json:"allocs_delta"`
	BytesDelta    int64 `json:"bytes_delta"`
	MissesDelta   int64 `json:"misses_delta"`
	HeapPeakDelta int64 `json:"heap_peak_delta"`
}

// ComputePayoff joins the profiles of an inlining-on and an inlining-off
// measurement of the same program into the per-field payoff table.
func ComputePayoff(on, off *Measurement) (*ProgramPayoff, error) {
	switch {
	case on == nil || off == nil:
		return nil, fmt.Errorf("bench: payoff needs two measurements")
	case on.Program != off.Program:
		return nil, fmt.Errorf("bench: payoff across programs %s vs %s", on.Program, off.Program)
	case on.Mode != pipeline.ModeInline:
		return nil, fmt.Errorf("bench: payoff 'on' run must be inline mode, got %s", on.Mode)
	case off.Mode == pipeline.ModeInline:
		return nil, fmt.Errorf("bench: payoff 'off' run must not be inline mode")
	case on.Profile == nil || off.Profile == nil:
		return nil, fmt.Errorf("bench: payoff needs profiled measurements")
	case on.Compiled == nil || on.Compiled.Optimize == nil:
		return nil, fmt.Errorf("bench: payoff 'on' run carries no optimizer result")
	}
	opt := on.Compiled.Optimize

	keys := append([]analysis.FieldKey(nil), opt.Decision.InlinedKeys()...)
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	keyStrs := make([]string, len(keys))
	isKey := make(map[string]bool, len(keys))
	for i, k := range keys {
		keyStrs[i] = k.String()
		isKey[k.String()] = true
	}

	// Array keys by allocation-site position, for joining array sites.
	arrPos := make(map[string]string)
	posOfArr := make(map[string]string)
	for _, ac := range on.Compiled.Analysis.Arrs {
		k := ac.ElemKey()
		if isKey[k.String()] {
			arrPos[ac.Site.Pos.String()] = k.String()
			posOfArr[k.String()] = ac.Site.Pos.String()
		}
	}

	// Child classes per key: the classes flowing into each inlined field
	// (or array's elements) in the analysis. A child's own field traffic
	// is credited to the consuming key. First key (in sorted order) wins
	// when a class feeds several keys.
	childOf := make(map[string]string)
	claim := func(class *ir.Class, key string) {
		name := class.Source().Name
		if _, ok := childOf[name]; !ok {
			childOf[name] = key
		}
	}
	for _, k := range keys {
		if k.Array {
			for _, ac := range on.Compiled.Analysis.Arrs {
				if ac.ElemKey() != k {
					continue
				}
				for _, oc := range ac.Elem.TS.ObjList() {
					claim(oc.Class, k.String())
				}
			}
			continue
		}
		for _, oc := range on.Compiled.Analysis.Objs {
			f := oc.Class.FieldNamed(k.Name)
			if f == nil || f.Owner != k.Class {
				continue
			}
			st := &oc.Fields[f.Slot]
			for _, child := range st.TS.ObjList() {
				claim(child.Class, k.String())
			}
		}
	}

	// Stack-elided sites by (pos, class) → consuming keys.
	stackProv := make(map[string][]string)
	for _, s := range opt.StackProvenance {
		stackProv[s.Pos+"\x00"+s.Class] = s.Fields
	}

	// Container growth: synthetic slots the restructured classes added,
	// per (origin class name, key). Weights for splitting a container
	// site's byte growth across the keys inlined into it; the per-version
	// maximum doubles as the static size prediction.
	addedSlots := make(map[string]map[string]int64)
	predSlots := make(map[string]int64)
	for _, c := range on.Compiled.Prog.Classes {
		if c.Origin == nil {
			continue
		}
		orig := c.Source()
		perKey := make(map[string]int64)
		for _, f := range c.Fields {
			if !f.Synthetic {
				continue
			}
			dollar := strings.IndexByte(f.Name, '$')
			if dollar <= 0 {
				continue
			}
			prefix := f.Name[:dollar]
			owner := orig
			if g := orig.FieldNamed(prefix); g != nil && g.Owner != nil {
				owner = g.Owner
			}
			ks := owner.Name + "." + prefix
			if isKey[ks] {
				perKey[ks]++
			}
		}
		if len(perKey) == 0 {
			continue
		}
		byClass := addedSlots[orig.Name]
		if byClass == nil {
			byClass = make(map[string]int64)
			addedSlots[orig.Name] = byClass
		}
		for ks, n := range perKey {
			byClass[ks] += n
			if n > predSlots[ks] {
				predSlots[ks] = n
			}
		}
	}

	allocs := make(map[string]int64)
	bytes := make(map[string]int64)
	misses := make(map[string]int64)
	const other = "\x00other"

	// split distributes delta across targets by weight (equal weights when
	// nil), assigning integer shares with the remainder on the first
	// target so the total is preserved exactly.
	split := func(acc map[string]int64, delta int64, targets []string, weights map[string]int64) {
		if len(targets) == 0 {
			acc[other] += delta
			return
		}
		var total int64
		for _, t := range targets {
			w := int64(1)
			if weights != nil {
				w = weights[t]
			}
			total += w
		}
		if total <= 0 {
			acc[targets[0]] += delta
			return
		}
		var given int64
		for i, t := range targets {
			w := int64(1)
			if weights != nil {
				w = weights[t]
			}
			share := delta * w / total
			if i == 0 {
				continue // first target takes the remainder below
			}
			acc[t] += share
			given += share
		}
		acc[targets[0]] += delta - given
	}

	// Allocation sites: join both profiles by (pos, class, array); every
	// site delta lands in exactly one bucket, so per-field allocations and
	// bytes sum to the aggregate deltas.
	type siteKey struct {
		pos, class string
		array      bool
	}
	sites := make(map[siteKey][2]vm.SiteProfile)
	for i, prof := range []*vm.RunProfile{off.Profile, on.Profile} {
		for _, s := range prof.Sites {
			k := siteKey{s.Pos, s.Class, s.Array}
			pair := sites[k]
			pair[i] = s
			sites[k] = pair
		}
	}
	siteKeys := make([]siteKey, 0, len(sites))
	for k := range sites {
		siteKeys = append(siteKeys, k)
	}
	sort.Slice(siteKeys, func(i, j int) bool {
		a, b := siteKeys[i], siteKeys[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		if a.class != b.class {
			return a.class < b.class
		}
		return !a.array && b.array
	})
	for _, sk := range siteKeys {
		pair := sites[sk]
		dAllocs := int64(pair[0].Allocs) - int64(pair[1].Allocs)
		dBytes := int64(pair[0].Bytes) - int64(pair[1].Bytes)
		if sk.array {
			if ks, ok := arrPos[sk.pos]; ok {
				allocs[ks] += dAllocs
				bytes[ks] += dBytes
				misses[ks] += int64(pair[0].Misses) - int64(pair[1].Misses)
			} else {
				allocs[other] += dAllocs
				bytes[other] += dBytes
				misses[other] += int64(pair[0].Misses) - int64(pair[1].Misses)
			}
			continue
		}
		// Object sites: misses are already covered by the field-path
		// partition below; only allocations and bytes attribute here.
		if prov, ok := stackProv[sk.pos+"\x00"+sk.class]; ok {
			split(allocs, dAllocs, prov, nil)
			split(bytes, dBytes, prov, nil)
			continue
		}
		if byClass, ok := addedSlots[sk.class]; ok {
			// A container class that grew synthetic slots: its site's
			// byte growth (negative delta) is the cost side of the keys
			// inlined into it, split by how many slots each key added.
			targets := make([]string, 0, len(byClass))
			for ks := range byClass {
				targets = append(targets, ks)
			}
			sort.Strings(targets)
			split(allocs, dAllocs, targets, byClass)
			split(bytes, dBytes, targets, byClass)
			continue
		}
		allocs[other] += dAllocs
		bytes[other] += dBytes
	}

	// Field paths: join both profiles by (class, field); assign each
	// path's miss delta to a key via synthetic-prefix, the key itself, or
	// child-class provenance.
	type pathKey struct{ class, field string }
	paths := make(map[pathKey][2]vm.FieldProfile)
	for i, prof := range []*vm.RunProfile{off.Profile, on.Profile} {
		for _, f := range prof.Fields {
			k := pathKey{f.Class, f.Field}
			pair := paths[k]
			pair[i] = f
			paths[k] = pair
		}
	}
	src := on.Compiled.Source
	assign := func(class, field string) string {
		if dollar := strings.IndexByte(field, '$'); dollar > 0 {
			prefix := field[:dollar]
			owner := class
			if c := src.ClassNamed(class); c != nil {
				if g := c.FieldNamed(prefix); g != nil && g.Owner != nil {
					owner = g.Owner.Name
				}
			}
			if ks := owner + "." + prefix; isKey[ks] {
				return ks
			}
			return other
		}
		if ks := class + "." + field; isKey[ks] {
			return ks
		}
		if ks, ok := childOf[class]; ok {
			return ks
		}
		return other
	}
	for pk, pair := range paths {
		misses[assign(pk.class, pk.field)] += int64(pair[0].Misses) - int64(pair[1].Misses)
	}

	out := &ProgramPayoff{
		Program:               on.Program,
		DispatchMissesAvoided: int64(off.Profile.DispatchMisses) - int64(on.Profile.DispatchMisses),
		AllocsDelta:           int64(off.Counters.ObjectsAllocated+off.Counters.ArraysAllocated) - int64(on.Counters.ObjectsAllocated+on.Counters.ArraysAllocated),
		BytesDelta:            int64(off.Counters.BytesAllocated) - int64(on.Counters.BytesAllocated),
		MissesDelta:           int64(off.Counters.CacheMisses) - int64(on.Counters.CacheMisses),
		HeapPeakDelta:         int64(off.Profile.HeapPeakBytes) - int64(on.Profile.HeapPeakBytes),
	}
	for _, ks := range keyStrs {
		row := FieldPayoff{
			Field:            ks,
			ArraySite:        posOfArr[ks],
			AllocsEliminated: allocs[ks],
			BytesSaved:       bytes[ks],
			MissesAvoided:    misses[ks],
		}
		if n := predSlots[ks]; n > 0 {
			row.PredictedBytesPerAlloc = int64(vm.PadAlloc(vm.HeaderBytes+uint64(n)*vm.SlotBytes)) - (n-1)*vm.SlotBytes
		}
		if row.AllocsEliminated > 0 {
			row.MeasuredBytesPerAlloc = float64(row.BytesSaved) / float64(row.AllocsEliminated)
		}
		out.Fields = append(out.Fields, row)
	}
	out.Unattributed = FieldPayoff{
		Field:            "(unattributed)",
		AllocsEliminated: allocs[other],
		BytesSaved:       bytes[other],
		MissesAvoided:    misses[other],
	}
	return out, nil
}

// Payoff measures one benchmark's per-field payoff at the given scale:
// a profiled inlining-on run joined against a profiled baseline run.
func (e *Engine) Payoff(p Program, s Scale) (*ProgramPayoff, error) {
	runs, err := Collect(2, func(i int) (*Measurement, error) {
		mode := pipeline.ModeInline
		if i == 1 {
			mode = pipeline.ModeBaseline
		}
		return e.MeasureProfiled(p, VariantAuto, s, pipeline.Config{Mode: mode})
	})
	if err != nil {
		return nil, err
	}
	pay, err := ComputePayoff(runs[0], runs[1])
	if err != nil {
		return nil, err
	}
	pay.Scale = s.String()
	return pay, nil
}

// PayoffAll measures the payoff table for every benchmark.
func (e *Engine) PayoffAll(s Scale) ([]*ProgramPayoff, error) {
	return Collect(len(Programs), func(i int) (*ProgramPayoff, error) {
		return e.Payoff(Programs[i], s)
	})
}

// PrintPayoff renders the per-field payoff tables.
func PrintPayoff(w io.Writer, rows []*ProgramPayoff) {
	fmt.Fprintln(w, "Per-field payoff: measured savings of each inlined field (inlining on vs off)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s (%s): Δallocs=%d Δbytes=%d Δmisses=%d Δheap-peak=%d\n",
			r.Program, r.Scale, r.AllocsDelta, r.BytesDelta, r.MissesDelta, r.HeapPeakDelta)
		fmt.Fprintf(w, "    %-28s %12s %12s %12s %10s %10s\n",
			"field", "allocs-elim", "bytes-saved", "misses-avoid", "pred B/a", "meas B/a")
		for _, f := range r.Fields {
			name := f.Field
			if f.ArraySite != "" {
				name = f.Field + " @" + f.ArraySite
			}
			meas := "-"
			if f.AllocsEliminated > 0 {
				meas = fmt.Sprintf("%.1f", f.MeasuredBytesPerAlloc)
			}
			pred := "-"
			if f.PredictedBytesPerAlloc != 0 {
				pred = fmt.Sprintf("%d", f.PredictedBytesPerAlloc)
			}
			fmt.Fprintf(w, "    %-28s %12d %12d %12d %10s %10s\n",
				name, f.AllocsEliminated, f.BytesSaved, f.MissesAvoided, pred, meas)
		}
		u := r.Unattributed
		if u.AllocsEliminated != 0 || u.BytesSaved != 0 || u.MissesAvoided != 0 {
			fmt.Fprintf(w, "    %-28s %12d %12d %12d\n",
				u.Field, u.AllocsEliminated, u.BytesSaved, u.MissesAvoided)
		}
		if r.DispatchMissesAvoided != 0 {
			fmt.Fprintf(w, "    %-28s %12s %12s %12d\n", "(dispatch)", "", "", r.DispatchMissesAvoided)
		}
	}
}
