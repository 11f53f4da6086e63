package bench_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"objinline/internal/bench"
	"objinline/internal/cachesim"
	"objinline/internal/core"
	"objinline/internal/pipeline"
	"objinline/internal/vm"
)

var updateVMCounters = flag.Bool("update-vm-counters", false, "rewrite testdata/vm_counters.txt")

const vmCountersFile = "testdata/vm_counters.txt"

// formatCounters renders every field of c as name=value in declaration
// order; CostEvents prints as one comma-separated list indexed by
// vm.CostDim.
func formatCounters(c vm.Counters) string {
	var b strings.Builder
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.Type().Field(i).Name)
		b.WriteByte('=')
		if f := v.Field(i); f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprint(&b, f.Index(j).Interface())
			}
		} else {
			fmt.Fprint(&b, f.Interface())
		}
	}
	return b.String()
}

// TestVMCountersPinned pins the VM's modeled numbers: for every program at
// the small scale in direct, baseline and inline mode, plus inline with
// the parallel-array layout, the full vm.Counters of a run under the
// default cost model and cache simulator, and the SHA-256 of the printed
// output, must match the committed file. These are the numbers behind
// Figs. 16 and 17, so a change to the interpreter's own data structures
// must leave the file byte-identical. Regenerate with -update-vm-counters
// only for an intended change to what the VM models.
func TestVMCountersPinned(t *testing.T) {
	type build struct {
		label string
		cfg   pipeline.Config
	}
	builds := []build{
		{"direct", pipeline.Config{Mode: pipeline.ModeDirect}},
		{"baseline", pipeline.Config{Mode: pipeline.ModeBaseline}},
		{"inline", pipeline.Config{Mode: pipeline.ModeInline}},
		{"inline-parallel", pipeline.Config{Mode: pipeline.ModeInline, ArrayLayout: core.LayoutParallel}},
	}
	var b strings.Builder
	for _, p := range bench.Programs {
		src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, bd := range builds {
			c, err := pipeline.Compile(p.Name+".icc", src, bd.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, bd.label, err)
			}
			var out strings.Builder
			cnt, err := c.Run(pipeline.RunOptions{Out: &out, Cache: &cachesim.DefaultConfig, MaxSteps: bench.RunMaxSteps})
			if err != nil {
				t.Fatalf("%s/%s run: %v", p.Name, bd.label, err)
			}
			sum := sha256.Sum256([]byte(out.String()))
			fmt.Fprintf(&b, "%s %s %s output_sha256=%s\n", p.Name, bd.label, formatCounters(cnt), hex.EncodeToString(sum[:]))
		}
	}
	got := b.String()
	if *updateVMCounters {
		if err := os.WriteFile(vmCountersFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(vmCountersFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.SplitN(line, " ", 3)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", vmCountersFile, line)
		}
		want[f[0]+"/"+f[1]] = f[2]
	}
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		f := strings.SplitN(line, " ", 3)
		name := f[0] + "/" + f[1]
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no pinned counters in %s", name, vmCountersFile)
		case w != f[2]:
			t.Errorf("%s: VM counters changed\ngot:    %s\npinned: %s", name, f[2], w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: pinned in %s but no longer run", name, vmCountersFile)
	}
}
