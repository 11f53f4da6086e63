package bench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/pipeline"
)

var updateIRHashes = flag.Bool("update-ir-hashes", false, "rewrite testdata/ir_sha256.txt")

const irHashFile = "testdata/ir_sha256.txt"

// TestOptimizedIRPinned pins the optimized IR of every benchmark build:
// the SHA-256 of Prog.String() for each program × {baseline, inline} at
// the small scale must match the committed file. Contour, clone and class
// numbering all reach the printed IR, so a change that renumbers them —
// and with them the modeled cycle counts — fails here even when every
// output and count stays the same. Regenerate with -update-ir-hashes only
// for an intended change to the optimized code.
func TestOptimizedIRPinned(t *testing.T) {
	var keys []string
	got := map[string]string{}
	for _, p := range bench.Programs {
		src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []pipeline.Mode{pipeline.ModeBaseline, pipeline.ModeInline} {
			c, err := pipeline.Compile(p.Name+".icc", src, pipeline.Config{Mode: mode})
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, mode, err)
			}
			sum := sha256.Sum256([]byte(c.Prog.String()))
			key := fmt.Sprintf("%s %v", p.Name, mode)
			keys = append(keys, key)
			got[key] = hex.EncodeToString(sum[:])
		}
	}
	if *updateIRHashes {
		var b strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, got[key])
		}
		if err := os.WriteFile(irHashFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(irHashFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", irHashFile, line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	for _, key := range keys {
		name := strings.Replace(key, " ", "/", 1)
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no pinned hash in %s", name, irHashFile)
		case w != got[key]:
			t.Errorf("%s: optimized IR changed (sha256 %s, pinned %s)", name, got[key], w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("%s: pinned in %s but no longer built", key, irHashFile)
	}
}
