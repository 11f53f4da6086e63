package objinline_test

// Config.Fingerprint is a cache-key component (the oicd server's
// content-addressed result cache hashes it with the source), so its
// contract is load-bearing: equivalent configurations must encode
// identically, distinct ones must not, and the encoding must be stable
// run to run.

import (
	"strings"
	"testing"

	"objinline"
)

// TestFingerprintEquivalentConfigs pins the default-filling half of the
// contract: a knob left zero and the same knob set to its default value
// are the same configuration and must produce one fingerprint — otherwise
// the server would compile (and cache) the same work twice.
func TestFingerprintEquivalentConfigs(t *testing.T) {
	zero := objinline.Config{Mode: objinline.Inline}
	explicit := objinline.Config{
		Mode:     objinline.Inline,
		TagDepth: 3, // the documented default
	}
	if got, want := explicit.Fingerprint(), zero.Fingerprint(); got != want {
		t.Errorf("explicit defaults fingerprint differently from zero values:\n  zero:     %s\n  explicit: %s", want, got)
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

// TestFingerprintIsStable pins the encoding itself: the exact versioned
// string, repeatable within a process. (Cross-run stability follows from
// the fixed field order — nothing in the encoding iterates a map.) The
// v1 encoding also named the analysis solver and v2 the analysis pass
// cap; bumping the version keeps an older cache record from ever
// matching a new key.
func TestFingerprintIsStable(t *testing.T) {
	cfg := objinline.Config{Mode: objinline.Inline, ParallelArrays: true, TagDepth: 4}
	fp := cfg.Fingerprint()
	const want = "objinline.Config/v4;mode=inline;parallel_arrays=true;tag_depth=4"
	if fp != want {
		t.Errorf("fingerprint = %q, want %q", fp, want)
	}
	for i := 0; i < 100; i++ {
		if again := cfg.Fingerprint(); again != fp {
			t.Fatalf("fingerprint not repeatable: %q then %q", fp, again)
		}
	}
}

// TestUnknownModeRejected pins the range check that guards the Mode
// alias: an out-of-range value fails both compile entry points instead
// of running some pipeline.
func TestUnknownModeRejected(t *testing.T) {
	const src = "func main() { print(6 * 7); }"
	for _, mode := range []objinline.Mode{-1, 7} {
		cfg := objinline.Config{Mode: mode}
		_, cerr := objinline.Compile("m.icc", src, cfg)
		_, serr := objinline.NewSession("m.icc", src, cfg)
		for surface, err := range map[string]error{"Compile": cerr, "NewSession": serr} {
			if err == nil || !strings.Contains(err.Error(), "unknown mode") {
				t.Errorf("%s with Mode(%d): err = %v, want unknown mode", surface, mode, err)
			}
		}
	}
}
