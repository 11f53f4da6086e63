package objinline_test

// Config.Fingerprint is a cache-key component (the oicd server's
// content-addressed result cache hashes it with the source), so its
// contract is load-bearing: equivalent configurations must encode
// identically, distinct ones must not, and the encoding must be stable
// run to run.

import (
	"fmt"
	"strings"
	"testing"

	"objinline"
	"objinline/internal/server/api"
)

// TestFingerprintEquivalentConfigs pins the default-filling half of the
// contract: a knob left zero and the same knob set to its default value
// are the same configuration and must produce one fingerprint — otherwise
// the server would compile (and cache) the same work twice.
func TestFingerprintEquivalentConfigs(t *testing.T) {
	zero := objinline.Config{Mode: objinline.Inline}
	explicit := objinline.Config{
		Mode:      objinline.Inline,
		TagDepth:  3, // the documented default
		MaxPasses: 8, // the documented default
		Solver:    objinline.SolverWorklist,
	}
	if got, want := explicit.Fingerprint(), zero.Fingerprint(); got != want {
		t.Errorf("explicit defaults fingerprint differently from zero values:\n  zero:     %s\n  explicit: %s", want, got)
	}
}

// TestFingerprintExcludesEngine pins the other direction of the
// contract for the engine knob: Engine selects which tier executes the
// program, never what is compiled, so configurations differing only in
// Engine must share one fingerprint. If the engine leaked into the key,
// every native run would recompile (and re-cache) work the server
// already has under the VM key.
func TestFingerprintExcludesEngine(t *testing.T) {
	base := objinline.Config{Mode: objinline.Inline}
	for _, e := range []objinline.Engine{objinline.EngineDefault, objinline.EngineVM, objinline.EngineNative} {
		cfg := base
		cfg.Engine = e
		if got, want := cfg.Fingerprint(), base.Fingerprint(); got != want {
			t.Errorf("engine %s changed the fingerprint:\n  base:   %s\n  engine: %s", e, want, got)
		}
	}
}

// TestFingerprintDistinguishesKnobs checks every knob that can change
// compilation output changes the fingerprint.
func TestFingerprintDistinguishesKnobs(t *testing.T) {
	base := objinline.Config{Mode: objinline.Inline}
	variants := map[string]objinline.Config{
		"mode":            {Mode: objinline.Baseline},
		"parallel_arrays": {Mode: objinline.Inline, ParallelArrays: true},
		"tag_depth":       {Mode: objinline.Inline, TagDepth: 5},
		"max_passes":      {Mode: objinline.Inline, MaxPasses: 2},
		"solver":          {Mode: objinline.Inline, Solver: objinline.SolverSweep},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, cfg := range variants {
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("configs %q and %q collide on fingerprint %s", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintIsStable pins the encoding itself: versioned, and
// repeatable within a process. (Cross-run stability follows from the
// fixed field order — nothing in the encoding iterates a map.)
func TestFingerprintIsStable(t *testing.T) {
	cfg := objinline.Config{Mode: objinline.Inline, ParallelArrays: true, TagDepth: 4}
	fp := cfg.Fingerprint()
	if !strings.HasPrefix(fp, "objinline.Config/v1;") {
		t.Errorf("fingerprint %q lacks the version prefix", fp)
	}
	for i := 0; i < 100; i++ {
		if again := cfg.Fingerprint(); again != fp {
			t.Fatalf("fingerprint not repeatable: %q then %q", fp, again)
		}
	}
}

// TestSolverNames is the library half of solver-name validation (the oic
// and oicd surfaces have their own tables): ParseSolver, Compile,
// NewSession and the wire config's ToConfig accept exactly the two solver
// names, the empty default included, and reject everything else — the
// removed "parallel" among them — with one error text.
func TestSolverNames(t *testing.T) {
	const src = "func main() { print(6 * 7); }"
	cases := []struct {
		name string
		want string // canonical name; "" means rejected
	}{
		{"", objinline.SolverWorklist},
		{"worklist", objinline.SolverWorklist},
		{"sweep", objinline.SolverSweep},
		{"parallel", ""},
		{"Parallel", ""},
		{"Worklist", ""},
		{"bogus", ""},
	}
	for _, tc := range cases {
		cfg := objinline.Config{Mode: objinline.Inline, Solver: tc.name}
		got, err := objinline.ParseSolver(tc.name)
		_, cerr := objinline.Compile("s.icc", src, cfg)
		_, serr := objinline.NewSession("s.icc", src, cfg)
		_, werr := api.Config{Solver: tc.name}.ToConfig()
		if tc.want != "" {
			if err != nil || got != tc.want {
				t.Errorf("ParseSolver(%q) = %q, %v; want %q", tc.name, got, err, tc.want)
			}
			for surface, e := range map[string]error{"Compile": cerr, "NewSession": serr, "ToConfig": werr} {
				if e != nil {
					t.Errorf("%s with solver %q: %v", surface, tc.name, e)
				}
			}
			continue
		}
		want := fmt.Sprintf("unknown solver %q (want worklist or sweep)", tc.name)
		for surface, e := range map[string]error{"ParseSolver": err, "Compile": cerr, "NewSession": serr, "ToConfig": werr} {
			if e == nil || !strings.Contains(e.Error(), want) {
				t.Errorf("%s with solver %q: err = %v, want %q", surface, tc.name, e, want)
			}
		}
	}
}
