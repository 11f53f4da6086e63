package bench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/core"
	"objinline/internal/pipeline"
)

var updateEvidenceHashes = flag.Bool("update-evidence-hashes", false, "rewrite testdata/evidence_sha256.txt")

const evidenceHashFile = "testdata/evidence_sha256.txt"

// decisionEvidence renders every rejection reason (code, message,
// evidence) and every accepted chain of d as JSON, keyed by field key;
// encoding/json emits map keys in sorted order.
func decisionEvidence(d *core.Decision) ([]byte, error) {
	doc := struct {
		Rejected map[string]core.Reason `json:"rejected"`
		Accepted map[string][]core.Step `json:"accepted"`
	}{map[string]core.Reason{}, map[string][]core.Step{}}
	for k, r := range d.Rejected {
		doc.Rejected[k.String()] = r
	}
	for k, steps := range d.Accepted {
		doc.Accepted[k.String()] = steps
	}
	return json.Marshal(doc)
}

// TestDecisionEvidencePinned pins the inlining verdicts and their
// provenance: the SHA-256 of decisionEvidence for each program's inline
// build at the small scale must match the committed file. The evidence
// is what Explain, oic -json and oicd report, so a change to the walk
// that records it fails here even when the optimized IR stays the same.
// Regenerate with -update-evidence-hashes only for an intended change.
func TestDecisionEvidencePinned(t *testing.T) {
	var lines []string
	for _, p := range bench.Programs {
		src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		c, err := pipeline.Compile(p.Name+".icc", src, pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		raw, err := decisionEvidence(c.Optimize.Decision)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sum := sha256.Sum256(raw)
		lines = append(lines, fmt.Sprintf("%s %s", p.Name, hex.EncodeToString(sum[:])))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateEvidenceHashes {
		if err := os.WriteFile(evidenceHashFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(evidenceHashFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("decision evidence changed\ngot:\n%s\npinned in %s:\n%s", got, evidenceHashFile, want)
	}
}
