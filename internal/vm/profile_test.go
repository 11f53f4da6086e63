package vm

// Tests for the site profiler: the disabled path allocates nothing (the
// AllocsPerRun contract the trace sink also pins), profiling perturbs no
// counters, and the attribution partitions the run's traffic exactly.

import (
	"testing"

	"objinline/internal/cachesim"
	"objinline/internal/ir"
	"objinline/internal/lang/parser"
	"objinline/internal/lang/sem"
	"objinline/internal/lower"
)

// TestNilProfileHooksAllocateNothing asserts the disabled-profiling
// contract: every hook the machine calls on a nil *Profile — allocation,
// field access, element access, dispatch, finish — does nothing and
// allocates nothing, so an unprofiled run pays zero for the
// instrumentation.
func TestNilProfileHooksAllocateNothing(t *testing.T) {
	var p *Profile
	allocs := testing.AllocsPerRun(500, func() {
		p.noteObjAlloc(nil, nil, false, 64)
		p.noteObjAlloc(nil, nil, true, 0)
		p.noteArrAlloc(nil, nil, 8, 96)
		p.noteFieldAccess(nil, 0, false, true)
		p.noteFieldAccess(nil, 0, true, false)
		p.noteElemAccess(nil, true)
		p.noteDispatch(true)
		p.finish(1 << 20)
	})
	if allocs != 0 {
		t.Errorf("nil-profile hook sequence allocates %v allocs/op, want 0", allocs)
	}
	if p.Sites() != nil || p.FieldPaths() != nil || p.Summary() != nil {
		t.Error("nil profile reported data")
	}
}

const profileTestSrc = `
class Point {
  x; y;
  def init(x, y) { self.x = x; self.y = y; }
  def sum() { return self.x + self.y; }
}

func main() {
  var arr = new [64];
  var i = 0;
  while (i < 64) {
    arr[i] = new Point(i, i + 1);
    i = i + 1;
  }
  var total = 0;
  i = 0;
  while (i < 64) {
    total = total + arr[i].sum();
    i = i + 1;
  }
  print(total);
}
`

func compileProfSrc(t *testing.T) *ir.Program {
	t.Helper()
	tree, err := parser.Parse("prof.icc", profileTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestProfilingDoesNotPerturbCounters runs the same program with and
// without a profile attached; every measured counter must be identical.
func TestProfilingDoesNotPerturbCounters(t *testing.T) {
	prog := compileProfSrc(t)
	cache := cachesim.Config{SizeBytes: 1 << 10, LineBytes: 32, Ways: 2}

	plain := New(prog, Options{Cache: &cache})
	base, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	prof := NewProfile()
	profiled := New(prog, Options{Cache: &cache, Profile: prof})
	got, err := profiled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("profiling changed the measurement:\nwithout: %+v\nwith:    %+v", base, got)
	}
}

// TestProfileAttributionPartitionsTraffic pins the exact-partition
// identity: field-path misses + array-site element misses + dispatch
// misses equal the run's CacheMisses counter, object-site misses mirror
// the field-path misses, and the allocation totals reconcile with the
// aggregate counters.
func TestProfileAttributionPartitionsTraffic(t *testing.T) {
	prog := compileProfSrc(t)
	// A tiny cache so misses actually occur.
	cache := cachesim.Config{SizeBytes: 1 << 9, LineBytes: 32, Ways: 1}
	prof := NewProfile()
	m := New(prog, Options{Cache: &cache, Profile: prof})
	c, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheMisses == 0 {
		t.Fatal("tiny cache produced no misses; the partition test is vacuous")
	}

	var fieldMisses, fieldAccesses uint64
	for _, f := range prof.FieldPaths() {
		fieldMisses += f.Misses
		fieldAccesses += f.Reads + f.Writes
	}
	var objSiteMisses, arrMisses uint64
	var objAllocs, arrAllocs, heapBytes, heapSlots uint64
	for _, s := range prof.Sites() {
		if s.Array {
			arrMisses += s.Misses
			arrAllocs += s.Allocs
		} else {
			objSiteMisses += s.Misses
			objAllocs += s.Allocs
		}
		heapBytes += s.Bytes
		heapSlots += s.Slots
	}
	sum := prof.Summary()
	dispatchMisses := sum.DispatchMisses

	if got := fieldMisses + arrMisses + dispatchMisses; got != c.CacheMisses {
		t.Errorf("miss partition: fields %d + arrays %d + dispatch %d = %d, want CacheMisses %d",
			fieldMisses, arrMisses, dispatchMisses, got, c.CacheMisses)
	}
	if objSiteMisses != fieldMisses {
		t.Errorf("object-site misses %d != field-path misses %d", objSiteMisses, fieldMisses)
	}
	if objAllocs != c.ObjectsAllocated {
		t.Errorf("site object allocs %d != counter %d", objAllocs, c.ObjectsAllocated)
	}
	if arrAllocs != c.ArraysAllocated {
		t.Errorf("site array allocs %d != counter %d", arrAllocs, c.ArraysAllocated)
	}
	if heapBytes != c.BytesAllocated {
		t.Errorf("site bytes %d != BytesAllocated %d", heapBytes, c.BytesAllocated)
	}
	if heapSlots != c.SlotsAllocated {
		t.Errorf("site slots %d != SlotsAllocated %d", heapSlots, c.SlotsAllocated)
	}
	// Bump allocation makes the high-water mark the total heap footprint.
	if sum.HeapPeakBytes != c.BytesAllocated {
		t.Errorf("heap peak %d != BytesAllocated %d", sum.HeapPeakBytes, c.BytesAllocated)
	}

	// The field table must name the source-level class and both fields.
	seen := map[string]bool{}
	for _, f := range prof.FieldPaths() {
		seen[f.Class+"."+f.Field] = true
	}
	if !seen["Point.x"] || !seen["Point.y"] {
		t.Errorf("field paths missing Point.x/Point.y: %+v", prof.FieldPaths())
	}
	// 64 Point allocations at one site, one array site.
	var pointSite, arraySite bool
	for _, s := range prof.Sites() {
		if !s.Array && s.Class == "Point" && s.Allocs == 64 {
			pointSite = true
		}
		if s.Array && s.Allocs == 1 {
			arraySite = true
		}
	}
	if !pointSite || !arraySite {
		t.Errorf("expected a 64-alloc Point site and one array site: %+v", prof.Sites())
	}
}

// BenchmarkRun compares a profiled against an unprofiled execution; the
// allocation numbers make the disabled-path overhead visible.
func BenchmarkRun(b *testing.B) {
	tree, err := parser.Parse("prof.icc", profileTestSrc)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sem.Check(tree)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lower.Lower(info)
	if err != nil {
		b.Fatal(err)
	}
	cache := cachesim.DefaultConfig
	b.Run("unprofiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(prog, Options{Cache: &cache}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := New(prog, Options{Cache: &cache, Profile: NewProfile()}).Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
