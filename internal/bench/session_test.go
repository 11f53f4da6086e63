package bench

import (
	"regexp"
	"strings"
	"testing"

	"objinline/internal/pipeline"
)

var payloadLiteral = regexp.MustCompile(`\b\d+\b`)

// payloadEdits derives a deterministic cycle of n payload edits from src:
// same-width rewrites of its integer literals, one literal per edit,
// round-robin. Every edit changes one function body at unchanged source
// positions, the edit class the session's patch tier exists for.
func payloadEdits(src string, n int) []string {
	locs := payloadLiteral.FindAllStringIndex(src, -1)
	if len(locs) == 0 {
		return nil
	}
	edits := make([]string, 0, n)
	for i := 0; len(edits) < n; i++ {
		loc := locs[i%len(locs)]
		digits := []byte(src[loc[0]:loc[1]])
		last := len(digits) - 1
		// Rotate the last digit, avoiding both a no-op and a width change
		// (no leading zero for single-digit literals).
		d := (int(digits[last]-'0') + 1 + i%8) % 10
		if len(digits) == 1 && d == 0 {
			d = 1
		}
		if byte('0'+d) == digits[last] {
			continue
		}
		digits[last] = byte('0' + d)
		edits = append(edits, src[:loc[0]]+string(digits)+src[loc[1]:])
	}
	return edits
}

// compileFingerprint renders the artifacts the warm/cold contract pins:
// the optimized IR, the analysis dump and the inlined field keys.
func compileFingerprint(c *pipeline.Compiled) string {
	var b strings.Builder
	b.WriteString(c.Prog.String())
	if c.Analysis != nil {
		b.WriteString("\n" + c.Analysis.String())
	}
	if c.Optimize != nil && c.Optimize.Decision != nil {
		for _, k := range c.Optimize.Decision.InlinedKeys() {
			b.WriteString("\ninlined " + k.String())
		}
	}
	return b.String()
}

// TestSessionPatchMatchesColdEveryProgram holds every benchmark program's
// editing session to the cold compiler: the first payload edits are each
// absorbed by the patch tier with no analysis work, and each patched
// result is identical to a cold compile of the edited source.
func TestSessionPatchMatchesColdEveryProgram(t *testing.T) {
	const editsPerProgram = 3
	cfg := pipeline.Config{Mode: pipeline.ModeInline}
	for _, p := range Programs {
		t.Run(p.Name, func(t *testing.T) {
			src, err := p.Source(VariantAuto, ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			file := p.Name + ".icc"
			edits := payloadEdits(src, editsPerProgram)
			if len(edits) != editsPerProgram {
				t.Fatalf("got %d payload edits, want %d", len(edits), editsPerProgram)
			}
			sess, _, err := pipeline.NewSession(file, src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, edited := range edits {
				warm, st, err := sess.Patch(edited)
				if err != nil {
					t.Fatalf("edit %d: %v", i, err)
				}
				if st.Tier != pipeline.TierPatch {
					t.Errorf("edit %d: tier %q, want %q", i, st.Tier, pipeline.TierPatch)
				}
				if st.AnalysisInstrEvals != 0 {
					t.Errorf("edit %d: %d analysis instruction evals, want 0", i, st.AnalysisInstrEvals)
				}
				cold, err := pipeline.Compile(file, edited, cfg)
				if err != nil {
					t.Fatalf("edit %d cold: %v", i, err)
				}
				if compileFingerprint(warm) != compileFingerprint(cold) {
					t.Errorf("edit %d: patched result differs from a cold compile", i)
				}
			}
		})
	}
}
