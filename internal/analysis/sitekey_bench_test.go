package analysis

// Benchmarks proving the siteKey memoization: call-site key construction
// runs once per (caller contour, site) per pass instead of once per
// binding re-evaluation, and the memoized path is allocation-free.

import (
	"testing"

	"objinline/internal/ir"
)

// benchAnalyzer builds a minimal analyzer with contours whose keys force
// both the short-key and the hash-collapsed (len > 72) paths.
func benchAnalyzer() (*analyzer, []*MethodContour, *ir.Instr) {
	a := &analyzer{opts: Options{}.WithDefaults(), curInstr: -1, pollN: 1}
	fn := &ir.Func{ID: 7, Name: "f"}
	in := &ir.Instr{ID: 13}
	mcs := []*MethodContour{
		{ID: 0, Fn: fn, Key: ""},
		{ID: 1, Fn: fn, Key: "s1.2/s3.4"},
		{ID: 2, Fn: fn, Key: "s1.2/s3.4/s5.6/s7.8/s9.10/s11.12/s13.14/s15.16/s17.18/s19.20/s21.22"},
	}
	return a, mcs, in
}

func BenchmarkSiteKeyMemo(b *testing.B) {
	a, mcs, in := benchAnalyzer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.siteKey(mcs[i%len(mcs)], in)
	}
}

func BenchmarkSiteKeyCompute(b *testing.B) {
	_, mcs, in := benchAnalyzer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mc := mcs[i%len(mcs)]
		computeSiteKey(mc.Fn.ID, mc.Key, in.ID)
	}
}

// TestSiteKeyMemoMatchesCompute pins the memoized keys to the direct
// construction, including the hash-collapse of over-long chains.
func TestSiteKeyMemoMatchesCompute(t *testing.T) {
	a, mcs, in := benchAnalyzer()
	for _, mc := range mcs {
		want := computeSiteKey(mc.Fn.ID, mc.Key, in.ID)
		if got := a.siteKey(mc, in); got != want {
			t.Errorf("siteKey(%q) = %q, want %q", mc.Key, got, want)
		}
		// Second lookup must serve the memo, not recompute.
		if got := a.siteKey(mc, in); got != want {
			t.Errorf("memoized siteKey(%q) = %q, want %q", mc.Key, got, want)
		}
	}
	if len(mcs) > 2 && len(computeSiteKey(mcs[2].Fn.ID, mcs[2].Key, in.ID)) > 72 {
		t.Errorf("long-chain key escaped the hash collapse")
	}
}
