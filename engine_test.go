package objinline_test

// The Engine API contract: Execute selects the tier (per-run option,
// then the compile-time default, then the VM), both tiers agree on
// program output, the deprecated Run wrappers stay VM-only, and the
// engine names round-trip through their wire encoding.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"objinline"
)

func TestEngineNames(t *testing.T) {
	cases := []struct {
		e    objinline.Engine
		name string
	}{
		{objinline.EngineDefault, "default"},
		{objinline.EngineVM, "vm"},
		{objinline.EngineNative, "native"},
	}
	for _, c := range cases {
		if c.e.String() != c.name {
			t.Errorf("Engine(%d).String() = %q, want %q", c.e, c.e.String(), c.name)
		}
		got, err := objinline.ParseEngine(c.name)
		if err != nil || got != c.e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.name, got, err, c.e)
		}
	}
	// The empty string is EngineDefault so wire formats can omit the field.
	if got, err := objinline.ParseEngine(""); err != nil || got != objinline.EngineDefault {
		t.Errorf("ParseEngine(\"\") = %v, %v", got, err)
	}
	if _, err := objinline.ParseEngine("jit"); err == nil {
		t.Error("ParseEngine(\"jit\") succeeded")
	}
	// Engine fields are JSON-friendly in both directions.
	data, err := json.Marshal(objinline.EngineNative)
	if err != nil || string(data) != `"native"` {
		t.Errorf("Marshal(EngineNative) = %s, %v", data, err)
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

func TestExecuteConfigEngineDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a native binary")
	}
	p, err := objinline.Compile("demo.icc", apiDemo,
		objinline.Config{Mode: objinline.Inline, Engine: objinline.EngineNative})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// EngineDefault in the run options defers to the compile-time default.
	res, err := p.Execute(context.Background(), objinline.RunOptions{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Engine != objinline.EngineNative || res.Native == nil {
		t.Errorf("compile-time engine default not honored: %+v", res)
	}
	// An explicit per-run engine overrides it.
	res, err = p.Execute(context.Background(), objinline.RunOptions{Engine: objinline.EngineVM})
	if err != nil {
		t.Fatalf("Execute(vm): %v", err)
	}
	if res.Engine != objinline.EngineVM || res.Metrics == nil {
		t.Errorf("per-run engine override not honored: %+v", res)
	}
}

func TestExecuteNativeRejectsProfile(t *testing.T) {
	p := compileAPI(t, objinline.Inline)
	_, err := p.Execute(context.Background(), objinline.RunOptions{
		Engine:  objinline.EngineNative,
		Profile: true,
	})
	if err == nil || !strings.Contains(err.Error(), "VM engine") {
		t.Errorf("Profile+native error = %v, want a VM-engine complaint", err)
	}
}
