package objinline_test

// Golden tests for the observability surface: the JSON shapes of Explain
// decisions and CompileStats, the structured RejectedFields reasons, mode
// parsing, and the cache-config consolidation. The Explain goldens pin the
// exact serialized bytes — evidence steps, codes, and positions are part
// of the public contract (`make check-json` runs these).

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"objinline"
)

func compileFixture(t *testing.T, opts ...objinline.Option) *objinline.Program {
	t.Helper()
	src, err := os.ReadFile("testdata/explain.icc")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := objinline.Compile("testdata/explain.icc", string(src),
		objinline.Config{Mode: objinline.Inline}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const rejectedGoldenJSON = `{
  "field": "Holder.v",
  "verdict": "rejected",
  "code": "store-not-by-value",
  "reason": "store at testdata/explain.icc:15:17 not convertible to a copy (value may be aliased or used later)",
  "evidence": [
    {
      "what": "pass-by-value-failed",
      "where": "testdata/explain.icc:15:17",
      "detail": "store in Holder::init cannot be converted to a copy"
    },
    {
      "what": "param-not-call-by-value",
      "where": "Holder::init",
      "detail": "parameter r1 cannot be passed by value from every call site"
    },
    {
      "what": "call-site-not-by-value",
      "where": "testdata/explain.icc:22:12",
      "detail": "argument 1 in main cannot be handed off by value"
    },
    {
      "what": "stored-elsewhere",
      "where": "testdata/explain.icc:23:12",
      "detail": "value also escapes through callstatic, so the copy would not capture all aliases"
    }
  ]
}`

const inlinedGoldenJSON = `{
  "field": "Rect.p",
  "verdict": "inlined",
  "code": "inlined",
  "evidence": [
    {
      "what": "content-monomorphic",
      "where": "Rect.p",
      "detail": "all stores hold class Point (checked over 1 object contours)"
    },
    {
      "what": "original-stores",
      "where": "Rect.p",
      "detail": "every stored value is an original object (NoField provenance)"
    },
    {
      "what": "store-convertible",
      "where": "testdata/explain.icc:9:20",
      "detail": "store passes PassByValue and becomes a copy"
    },
    {
      "what": "globally-consistent",
      "detail": "every value the field's contents flow into resolves to a single representation"
    }
  ]
}`

func TestExplainJSONGolden(t *testing.T) {
	prog := compileFixture(t)
	for _, tc := range []struct {
		field  string
		golden string
	}{
		{"Holder.v", rejectedGoldenJSON},
		{"Rect.p", inlinedGoldenJSON},
	} {
		d, err := prog.Explain(tc.field)
		if err != nil {
			t.Fatalf("Explain(%s): %v", tc.field, err)
		}
		got, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.golden {
			t.Errorf("Explain(%s) JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s",
				tc.field, got, tc.golden)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	prog := compileFixture(t)
	if _, err := prog.Explain("NoSuch.field"); err == nil {
		t.Error("Explain on an unknown field should error")
	}
	src, _ := os.ReadFile("testdata/explain.icc")
	direct, err := objinline.Compile("testdata/explain.icc", string(src),
		objinline.Config{Mode: objinline.Direct})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Explain("Rect.p"); err == nil {
		t.Error("Explain under Direct mode (no decision) should error")
	}
}

func TestRejectedFieldsStructuredReasons(t *testing.T) {
	prog := compileFixture(t)
	rej := prog.RejectedFields()
	r, ok := rej["Holder.v"]
	if !ok {
		t.Fatalf("Holder.v missing from RejectedFields: %v", rej)
	}
	if r.Code != "store-not-by-value" {
		t.Errorf("Holder.v code = %q", r.Code)
	}
	if len(r.Evidence) == 0 {
		t.Error("Holder.v reason carries no evidence")
	}
	// Reason.String() must preserve the classic report text.
	if !strings.Contains(prog.Report(), "rejected Holder.v: "+r.String()) {
		t.Errorf("Report does not render Reason.String(): %q vs report\n%s", r.String(), prog.Report())
	}
}

func TestCompileStatsJSON(t *testing.T) {
	prog := compileFixture(t, objinline.WithTracing())
	st := prog.CompileStats()
	wantPhases := []string{"parse", "check", "lower", "analysis", "optimize", "funcinline", "peephole"}
	if len(st.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d: %+v", len(st.Phases), len(wantPhases), st.Phases)
	}
	for i, ev := range st.Phases {
		if string(ev.Phase) != wantPhases[i] {
			t.Errorf("phase[%d] = %s, want %s", i, ev.Phase, wantPhases[i])
		}
	}
	if st.Analysis == nil || st.Analysis.MethodContours == 0 {
		t.Errorf("analysis stats incomplete: %+v", st.Analysis)
	}

	// Nanos is the one nondeterministic field: normalize it, then the
	// serialized form must be stable and round-trip.
	for i := range st.Phases {
		st.Phases[i].Nanos = 0
	}
	st.TotalNanos = 0
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back objinline.CompileStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	raw2, _ := json.Marshal(back)
	if string(raw) != string(raw2) {
		t.Errorf("CompileStats does not round-trip:\n%s\n%s", raw, raw2)
	}
}

func TestCompileStatsWithoutTracing(t *testing.T) {
	prog := compileFixture(t)
	st := prog.CompileStats()
	if len(st.Phases) != 0 || st.TotalNanos != 0 {
		t.Errorf("untraced compile recorded phases: %+v", st)
	}
	if st.Analysis == nil {
		t.Error("analysis stats should be available without tracing")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want objinline.Mode
	}{
		{"direct", objinline.Direct},
		{"baseline", objinline.Baseline},
		{"inline", objinline.Inline},
	} {
		got, err := objinline.ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("round-trip: %v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := objinline.ParseMode("jit"); err == nil {
		t.Error("ParseMode should reject unknown names")
	}
}
