package server

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"objinline"
)

const metricsSurfaceGolden = "testdata/metrics_surface.golden"

// volatileMetric matches the JSON /metrics values that depend on timing:
// the in-flight gauge and the latency percentiles.
var volatileMetric = regexp.MustCompile(`("(?:inflight|latency_[a-z0-9_]+)"): -?[0-9]+`)

// TestMetricsSurfacePinned pins what a fresh server exposes: the exact
// JSON /metrics body (key set, sorted order, `"key": value` spacing, with
// timing-dependent values masked) and every # TYPE line of the
// Prometheus scrape. The CI smoke greps and the benchmark's counter
// reader depend on the JSON shape byte for byte. Rerun with -update only
// when the surface is meant to change.
func TestMetricsSurfacePinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	scrape := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var got strings.Builder
	got.WriteString(volatileMetric.ReplaceAllString(scrape("/metrics"), "$1: _"))
	for _, line := range strings.Split(scrape("/metrics?format=prometheus"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line + "\n")
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsSurfaceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsSurfaceGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricsSurfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("metrics surface drifted from %s\n--- got ---\n%s--- want ---\n%s",
			metricsSurfaceGolden, got.String(), want)
	}
}

// metricToken matches a backticked metric name in the docs, templates
// included: session_patch_tier_<tier>_total, latency_<endpoint>_p{50,95,99}_ns.
var metricToken = regexp.MustCompile(`^[a-z][a-z0-9_]*(<tier>|<endpoint>)?[a-z0-9_]*(\{50,95,99\})?[a-z0-9_]*$`)

// TestMetricsDocumented is the doc-drift check: every key a live JSON
// /metrics serves is named in the Metrics section of docs/SERVER.md or
// docs/CLUSTER.md, and every metric name those sections put in backticks
// is served.
func TestMetricsDocumented(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	live := getMetrics(t, ts)

	tiers := []string{objinline.TierReuse, objinline.TierPatch, objinline.TierReopt, objinline.TierSolve, objinline.TierCold}
	var endpoints []string
	for _, ep := range metricsEndpoints {
		endpoints = append(endpoints, strings.NewReplacer("/", "_", "{", "", "}", "").Replace(ep[1:]))
	}
	expand := func(name, tmpl string, with []string) []string {
		if !strings.Contains(name, tmpl) {
			return []string{name}
		}
		var out []string
		for _, w := range with {
			out = append(out, strings.Replace(name, tmpl, w, 1))
		}
		return out
	}

	documented := make(map[string]bool)
	for _, doc := range []string{"../../docs/SERVER.md", "../../docs/CLUSTER.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		_, section, ok := strings.Cut(string(text), "\n## Metrics\n")
		if !ok {
			t.Fatalf("%s has no Metrics section", doc)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(section, -1) {
			if !metricToken.MatchString(m[1]) {
				continue
			}
			for _, a := range expand(m[1], "<tier>", tiers) {
				for _, b := range expand(a, "<endpoint>", endpoints) {
					for _, name := range expand(b, "{50,95,99}", []string{"50", "95", "99"}) {
						documented[name] = true
						if _, ok := live[name]; !ok {
							t.Errorf("%s documents %q, which /metrics does not serve", doc, name)
						}
					}
				}
			}
		}
	}
	for name := range live {
		if !documented[name] {
			t.Errorf("/metrics serves %q, which no Metrics section documents", name)
		}
	}
}
