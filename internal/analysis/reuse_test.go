package analysis_test

import (
	"context"
	"fmt"
	"testing"

	"objinline/internal/analysis"
	"objinline/internal/bench"
)

// TestAnalyzeResultOwnsItsState holds the per-pass storage reuse to its
// contract: each pass clears and re-carves the previous pass's maps and
// slabs, and only the final pass's state goes to the Result. Analyzing
// one program twice must give equal dumps, and the second run must not
// touch the first Result. Every benchmark runs several passes, so the
// reuse is exercised.
func TestAnalyzeResultOwnsItsState(t *testing.T) {
	for _, p := range bench.Programs {
		for _, tags := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tags=%v", p.Name, tags), func(t *testing.T) {
				src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				prog := compile(t, src)
				opts := analysis.Options{Tags: tags}
				first, err := analysis.AnalyzeContext(context.Background(), prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if first.Passes < 2 {
					t.Fatalf("%d pass(es); the reuse needs at least 2", first.Passes)
				}
				dump := first.String()
				second, err := analysis.AnalyzeContext(context.Background(), prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := second.String(); got != dump {
					t.Errorf("second analysis differs from the first\nfirst:\n%s\nsecond:\n%s", dump, got)
				}
				if got := first.String(); got != dump {
					t.Errorf("first Result changed under the second analysis\nbefore:\n%s\nafter:\n%s", dump, got)
				}
			})
		}
	}
}
