package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"objinline/internal/bench"
	"objinline/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite testdata/execute_seed1.txt from the direct-mode outputs")

// TestMain lets the test binary serve as the calibration child, which the
// benchmark starts by re-running its own executable.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-calibration-child" {
			if err := calibrationChild(os.Stdin, os.Stdout); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// startCalib starts the calibration child for a test that measures.
func startCalib(t *testing.T) {
	t.Helper()
	c, err := startCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	calib = c
	t.Cleanup(func() { c.close(); calib = nil })
}

func root(t *testing.T) string {
	t.Helper()
	r, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	r := root(t)
	gen := func(seed uint64) (sizes []map[string]int, order []compileConfig, edits [][]edit, reqs []request) {
		progs, err := suite(r, seed)
		if err != nil {
			t.Fatal(err)
		}
		er := rng(seed, streamEdits)
		for _, p := range progs {
			sizes = append(sizes, p.sizes)
			script, err := editScript(er, p.src)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			edits = append(edits, script)
		}
		return sizes, shuffledConfigs(seed, len(progs), modes), edits, roundRequests(seed, 3, len(progs))
	}
	s1, o1, e1, q1 := gen(7)
	s2, o2, e2, q2 := gen(7)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(e1, e2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("the same seed generated different inputs")
	}
	s3, o3, e3, q3 := gen(8)
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 7 and 8 drew the same sizes")
	}
	if reflect.DeepEqual(o1, o3) {
		t.Error("seeds 7 and 8 drew the same compile order")
	}
	if reflect.DeepEqual(e1, e3) {
		t.Error("seeds 7 and 8 drew the same edit scripts")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Error("seeds 7 and 8 drew the same request sequence")
	}
	if reflect.DeepEqual(roundRequests(7, 0, 5), roundRequests(7, 1, 5)) {
		t.Error("two rounds of one seed drew the same request sequence")
	}
}

func TestSizesStayInBand(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		progs, err := suite(root(t), seed)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			for k, v := range p.sizes {
				def, err := strconv.Atoi(bench.Programs[i].Default[k])
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(float64(v-def)) > sizeBand*float64(def)+0.5 {
					t.Errorf("seed %d %s %s=%d is outside %g of %d", seed, p.name, k, v, sizeBand, def)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: tail must sort
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %g at p%g (ok %v), want 90 at p90", v, pct, ok)
	}
	// Exactly 10 samples beyond the reported one.
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailSamples {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailSamples)
	}
	v, pct, ok = tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 samples = %g at p%g (ok %v), want the minimum at p%g", v, pct, ok, 100.0/11)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples reported a percentile with 10 samples beyond it")
	}
}

// The tail must come from the slowest configuration even when it has too
// few samples to hold the whole tail, where a tail over all samples would
// fall into the next configuration.
func TestTailStaysInSlowestConfig(t *testing.T) {
	for _, n := range []int{3, 10, 11, 12, 40} {
		s := newSamples()
		for i := 0; i < 100; i++ {
			s.add("fast", float64(1+i%7))
		}
		for i := 0; i < 30; i++ {
			s.add("next", 200+float64(i%3))
		}
		slow := map[float64]bool{}
		for i := 0; i < n; i++ {
			x := 300 + float64(i)
			s.add("slow", x)
			slow[x] = true
		}
		r := newReport()
		s.tailNote(r)
		if v := r.e2e["tail_ms"]; !slow[v] {
			t.Errorf("%d slow samples: tail_ms = %g, not a sample of the slowest configuration", n, v)
		}
	}
}

// With an even number of configurations, p50 is one configuration's own
// median, not the mean of two.
func TestConfigMedianIsOneConfig(t *testing.T) {
	s := newSamples()
	for i, c := range []string{"d", "a", "c", "b"} {
		for j := 0; j < 3; j++ {
			s.add(c, float64(10*(i+1)+j))
		}
	}
	if got := s.configMedian(); got != 21 {
		t.Errorf("configMedian over medians 11, 21, 31, 41 = %g, want 21", got)
	}
}

// Guard records of different builds are never compared: only a second
// run of the same build must repeat the counts.
func TestGuardKeyedByBuild(t *testing.T) {
	dir := t.TempDir()
	cfg := &config{workload: "compile", seed: 3}
	a, b := strings.Repeat("a", 64), strings.Repeat("b", 64)
	if guardName(cfg, a) == guardName(cfg, b) {
		t.Fatal("two builds share a guard record")
	}
	if err := checkGuard(dir, guardName(cfg, a), map[string]int64{"code_size": 100}); err != nil {
		t.Fatal(err)
	}
	if err := checkGuard(dir, guardName(cfg, b), map[string]int64{"code_size": 90}); err != nil {
		t.Errorf("a different build was compared with the first: %v", err)
	}
	if err := checkGuard(dir, guardName(cfg, a), map[string]int64{"code_size": 100}); err != nil {
		t.Errorf("the same build with the same counts: %v", err)
	}
	if err := checkGuard(dir, guardName(cfg, a), map[string]int64{"code_size": 101}); err == nil {
		t.Error("the same build with other counts passed the guard")
	}
	id, err := buildID()
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildID()
	if err != nil || again != id || len(id) != 64 {
		t.Errorf("buildID = %q then %q (%v), want one stable 64-digit hex id", id, again, err)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{0.001, 1000}, 1},
	} {
		got, err := geomean(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("geomean(%v) = %g, %v; want %g", c.xs, got, err, c.want)
		}
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) gave no error", bad)
		}
	}
}

func TestGeomeanOf(t *testing.T) {
	s := newSamples()
	for _, x := range []float64{2, 2, 2} {
		s.add("a/patch", x)
	}
	s.add("a/cold", 8)
	s.add("a/reuse", 1e-4)
	got, err := s.geomeanOf(func(c string) bool { return !strings.HasSuffix(c, "/reuse") })
	if err != nil || math.Abs(got-4) > 1e-9 {
		t.Errorf("geomeanOf without reuse = %g, %v; want 4", got, err)
	}
	if all, _ := s.geomean(); !(all < got) {
		t.Errorf("geomean with the reuse configuration = %g, want below %g", all, got)
	}
}

// TestCalibration checks the kernel's result is fixed, that the child
// process answers, and that scaling multiplies times and divides rates by
// calibRefMs over the median kernel time, leaving other metrics alone.
func TestCalibration(t *testing.T) {
	a, err := calibKernel()
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := calibKernel(); a != b || a < 4*calibTypes {
		t.Fatalf("kernel defined %d then %d identifiers", a, b)
	}
	startCalib(t)
	r := newReport()
	r.calibAt = time.Time{} // long ago: the next call runs the most kernels
	if err := r.calibrate(); err != nil {
		t.Fatal(err)
	}
	if len(r.calib) != 4 || r.guard["calibration_defs"] != int64(a) {
		t.Fatalf("calibrate ran %d kernels defining %d identifiers; want 4 and %d", len(r.calib), r.guard["calibration_defs"], a)
	}
	if err := r.calibrate(); err != nil || len(r.calib) != 4 {
		t.Fatalf("an immediate second call ran kernels: %d timings, %v", len(r.calib), err)
	}

	r = newReport()
	r.calib = []float64{calibRefMs / 2, calibRefMs / 2, calibRefMs}
	r.e2e = map[string]float64{"setup_s": 1, "suite_ms": 100, "ops_per_s": 10, "code_size": 7}
	scaleToHost(r)
	want := map[string]float64{"setup_s": 2, "suite_ms": 200, "ops_per_s": 5, "code_size": 7}
	if !reflect.DeepEqual(r.e2e, want) || r.failed != 0 {
		t.Errorf("scaled metrics %v, want %v", r.e2e, want)
	}
	r = newReport()
	scaleToHost(r)
	if r.failed != 1 {
		t.Errorf("scaling without kernel timings did not fail the run")
	}
}

func TestReshuffled(t *testing.T) {
	base := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r1, r2 := rng(3, streamPasses), rng(3, streamPasses)
	var firsts []int
	for pass := 0; pass < 5; pass++ {
		a, b := reshuffled(r1, base), reshuffled(r2, base)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("pass %d: same seed gave %v and %v", pass, a, b)
		}
		seen := map[int]bool{}
		for _, x := range a {
			seen[x] = true
		}
		if len(seen) != len(base) {
			t.Fatalf("pass %d: %v is not a permutation", pass, a)
		}
		firsts = append(firsts, a[0])
	}
	if !reflect.DeepEqual(base, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatal("reshuffled changed its input")
	}
	same := true
	for _, f := range firsts {
		same = same && f == firsts[0]
	}
	if same {
		t.Errorf("five passes all started with %d", firsts[0])
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 10 * ms},
		{name: "a", parent: 0, start: 1 * ms, end: 3 * ms},
		{name: "b", parent: 0, start: 2 * ms, end: 5 * ms}, // overlaps a
		{name: "c", parent: 1, start: 1 * ms, end: 2 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{6 * ms, 1 * ms, 3 * ms, 1 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric's name and unit, and that
// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
	}

	b, err := os.ReadFile(filepath.Join(root(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s (%s), the benchmark's %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark's %v", names, want)
	}
}

// TestTracedCompileMatchesPipeline pins the traced copy of the pipeline
// to pipeline.Compile, byte for byte, for every program and mode.
func TestTracedCompileMatchesPipeline(t *testing.T) {
	progs, err := smallSuite(root(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	acc := newLayerAcc(rec)
	for _, p := range progs {
		for _, m := range modes {
			got, err := tracedCompile(rec, acc, p.file, p.src, m)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", p.name, m, err)
			}
			want, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: m})
			if err != nil {
				t.Fatal(err)
			}
			if got.Prog.String() != want.Prog.String() {
				t.Errorf("%s/%s: traced compile IR differs from pipeline.Compile", p.name, m)
			}
		}
	}
	acc.endPass()
	if acc.ms("analysis") <= 0 || acc.n("core.instrs") <= 0 {
		t.Error("traced compiles recorded no analysis time or core instructions")
	}
}

// TestEditKindsHitTheirTiers runs one program's edit script through a
// session: each edit kind must land in the tier it is meant for.
func TestEditKindsHitTheirTiers(t *testing.T) {
	progs, err := smallSuite(root(t))
	if err != nil {
		t.Fatal(err)
	}
	p := progs[len(progs)-1]
	script, err := editScript(rng(3, streamEdits), p.src)
	if err != nil {
		t.Fatal(err)
	}
	sess, _, err := pipeline.NewSession(p.file, p.src, pipeline.Config{Mode: pipeline.ModeInline})
	if err != nil {
		t.Fatal(err)
	}
	want := map[editKind]string{
		editIdentical: pipeline.TierReuse, editPayload: pipeline.TierPatch, editShift: pipeline.TierReopt,
		editShape: pipeline.TierSolve, editStructural: pipeline.TierCold,
	}
	for i, ed := range script {
		c, st, err := sess.Patch(ed.src)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, ed.kind, err)
		}
		if st.Tier != want[ed.kind] {
			t.Errorf("edit %d (%s) took the %s tier, want %s", i, ed.kind, st.Tier, want[ed.kind])
		}
		cold, err := pipeline.Compile(p.file, ed.src, pipeline.Config{Mode: pipeline.ModeInline})
		if err != nil {
			t.Fatal(err)
		}
		if c.Prog.String() != cold.Prog.String() {
			t.Errorf("edit %d (%s): patched IR differs from a cold compile", i, ed.kind)
		}
	}
}

// TestExpectedOutputs checks the committed direct-mode outputs for the
// default seed. Run with -update to rewrite the file after a deliberate
// change to the programs or the size draw, then check it by hand.
func TestExpectedOutputs(t *testing.T) {
	r := root(t)
	progs, err := suite(r, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]string{}
	for _, p := range progs {
		c, err := pipeline.Compile(p.file, p.src, pipeline.Config{Mode: pipeline.ModeDirect})
		if err != nil {
			t.Fatal(err)
		}
		if outs[p.name], _, err = runVM(c, true); err != nil {
			t.Fatal(err)
		}
	}
	if *update {
		if err := os.WriteFile(filepath.Join(r, expectedFile), []byte(formatOutputs(progs, outs)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkExpected(r, defaultSeed, progs, outs); err != nil {
		t.Fatal(err)
	}
}

// TestServeRound drives one traced serve round: both clients, the access
// log and the output checks run, and the server compiles exactly the
// round's first-touch keys.
func TestServeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and compiles every program")
	}
	inst, err := newServeInst(&config{workload: "serve", seed: 5, root: root(t)}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	startCalib(t)
	r, err := inst.measure(time.Now(), newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 || r.attempted != len(roundRequests(5, 0, len(inst.progs))) {
		t.Fatalf("%d of %d requests failed: %v", r.failed, r.attempted, r.errs)
	}
	if got := r.layers["server.compiles"]; got != float64(2*len(inst.progs)) {
		t.Errorf("server.compiles = %g, want %d", got, 2*len(inst.progs))
	}
	if r.layers["server.handler_ms"] <= 0 || r.layers["server.hit_ratio"] <= 0.9 {
		t.Errorf("access-log figures missing: handler %g ms, hit ratio %g",
			r.layers["server.handler_ms"], r.layers["server.hit_ratio"])
	}
}
