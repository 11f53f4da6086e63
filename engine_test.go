package objinline_test

// The Engine API contract: RunOptions.Engine selects the tier per run
// (the zero value is the VM), both tiers agree on program output, and
// the engine names round-trip through their wire encoding.

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"objinline"
	"objinline/internal/pipeline"
)

func TestEngineNames(t *testing.T) {
	cases := []struct {
		e    objinline.Engine
		name string
	}{
		{objinline.EngineVM, "vm"},
		{objinline.EngineNative, "native"},
	}
	for _, c := range cases {
		if c.e.String() != c.name {
			t.Errorf("Engine(%d).String() = %q, want %q", c.e, c.e.String(), c.name)
		}
		got, err := pipeline.ParseEngine(c.name)
		if err != nil || got != c.e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.name, got, err, c.e)
		}
		text, err := c.e.MarshalText()
		if err != nil || string(text) != c.name {
			t.Errorf("%v.MarshalText() = %q, %v", c.e, text, err)
		}
		var back objinline.Engine
		if err := back.UnmarshalText([]byte(c.name)); err != nil || back != c.e {
			t.Errorf("UnmarshalText(%q) = %v, %v", c.name, back, err)
		}
	}
	// The empty string is the VM so wire formats can omit the field.
	var zero objinline.Engine
	if got, err := pipeline.ParseEngine(""); err != nil || got != objinline.EngineVM || zero != objinline.EngineVM {
		t.Errorf("ParseEngine(\"\") = %v, %v; zero Engine = %v", got, err, zero)
	}
	// "default" is not an engine name: the zero value already is the VM.
	for _, bad := range []string{"jit", "default"} {
		if _, err := pipeline.ParseEngine(bad); err == nil || !strings.Contains(err.Error(), "unknown engine") {
			t.Errorf("ParseEngine(%q) = %v, want unknown engine", bad, err)
		}
		var e objinline.Engine
		if err := e.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded", bad)
		}
	}
	// Engine fields are JSON-friendly in both directions.
	data, err := json.Marshal(objinline.Result{Engine: objinline.EngineNative})
	if err != nil || !strings.Contains(string(data), `"engine":"native"`) {
		t.Errorf("Marshal(Result{Engine: EngineNative}) = %s, %v", data, err)
	}
	var e objinline.Engine
	if err := json.Unmarshal([]byte(`"vm"`), &e); err != nil || e != objinline.EngineVM {
		t.Errorf("Unmarshal(\"vm\") = %v, %v", e, err)
	}
}

func TestExecuteDefaultsToVM(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	var out strings.Builder
	res, err := p.Execute(context.Background(), objinline.RunOptions{Output: &out})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Engine != objinline.EngineVM {
		t.Errorf("Engine = %v, want vm", res.Engine)
	}
	if res.Metrics == nil || res.Metrics.Cycles <= 0 {
		t.Errorf("VM result lacks metrics: %+v", res)
	}
	if res.Native != nil {
		t.Errorf("VM result carries native measurements: %+v", res.Native)
	}
	if out.String() != "17\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestExecuteNative(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary")
	}
	p := compileAPI(t, objinline.Inline)
	var out strings.Builder
	res, err := p.Execute(context.Background(), objinline.RunOptions{
		Output:     &out,
		Engine:     objinline.EngineNative,
		NativeReps: 3,
	})
	if err != nil {
		t.Fatalf("Execute(native): %v", err)
	}
	if res.Engine != objinline.EngineNative {
		t.Errorf("Engine = %v, want native", res.Engine)
	}
	if res.Metrics != nil {
		t.Errorf("native result carries VM metrics: %+v", res.Metrics)
	}
	n := res.Native
	if n == nil {
		t.Fatal("native result lacks measurements")
	}
	if n.Reps != 3 || n.WallNanos <= 0 || n.BuildNanos <= 0 {
		t.Errorf("implausible native measurements: %+v", n)
	}
	// Reps > 1 must not multiply output.
	if out.String() != "17\n" {
		t.Errorf("output = %q, want %q", out.String(), "17\n")
	}
}

func TestExecuteNativeRejectsProfile(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	_, err := p.Execute(context.Background(), objinline.RunOptions{
		Engine:  objinline.EngineNative,
		Profile: true,
	})
	if !errors.Is(err, objinline.ErrProfileNeedsVM) {
		t.Errorf("Profile+native error = %v, want ErrProfileNeedsVM", err)
	}
}
