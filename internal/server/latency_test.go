package server

// The latency-agreement check: the same /v1/compile requests timed by
// the client around each HTTP call and by the server's own histograms
// (scraped from /metrics?format=prometheus) must tell the same story,
// within the histograms' bucket resolution and the scheduler queueing the
// client's clock sees and the handler's cannot. A run where they differ
// means one of the instruments is lying.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objinline/internal/bench"
	"objinline/internal/obs"
	"objinline/internal/server/api"
)

// loadPhase is one phase's client-side measurement.
type loadPhase struct {
	errors  int
	elapsed time.Duration
	// quantiles are the client-measured p50/p95/p99.
	quantiles [3]time.Duration
	// dilation is how late 1ms metronome sleeps woke while the phase ran,
	// as a ratio (≥ 1). External load stretches client clocks by this
	// queueing while the handler's clock cannot see it.
	dilation float64
	// maxStall is the single worst metronome overshoot: the longest the
	// scheduler left a runnable goroutine waiting during the phase.
	maxStall time.Duration
}

// loadPercentiles are the quantiles both views report, in percent.
var loadPercentiles = [3]int{50, 95, 99}

// runLoad issues n requests from concurrency workers, request i being
// do(i), and times each one on the client.
func runLoad(n, concurrency int, do func(i int) (ok bool)) loadPhase {
	latencies := make([]time.Duration, n)
	var errs, next atomic.Int64
	// A metronome rides along with the workers: repeated 1ms sleeps whose
	// overshoot measures how late the scheduler wakes this process while
	// the phase runs, so the agreement check can widen its tolerance by
	// what actually happened instead of guessing.
	stop := make(chan struct{})
	probeDone := make(chan struct{})
	var asked, slept, maxOver int64
	go func() {
		defer close(probeDone)
		const tick = time.Millisecond
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(tick)
			d := int64(time.Since(t0))
			asked += int64(tick)
			slept += d
			maxOver = max(maxOver, d-int64(tick))
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				if !do(i) {
					errs.Add(1)
				}
				latencies[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	ph := loadPhase{errors: int(errs.Load()), elapsed: time.Since(start), dilation: 1}
	close(stop)
	<-probeDone
	if asked > 0 {
		ph.dilation = max(1, float64(slept)/float64(asked))
	}
	ph.maxStall = time.Duration(maxOver)
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	for i, p := range loadPercentiles {
		ph.quantiles[i] = latencies[n*p/100]
	}
	return ph
}

// scrapeCompileQuantiles estimates p50/p95/p99 of the /v1/compile series
// with the given cache status from the Prometheus exposition, summing
// the series' buckets across the remaining labels.
func scrapeCompileQuantiles(t *testing.T, ts *httptest.Server, cache string) [3]time.Duration {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d err %v", resp.StatusCode, err)
	}
	const series = "oicd_request_duration_seconds_bucket{"
	byLe := map[float64]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		if !strings.Contains(labels, `endpoint="/v1/compile"`) || !strings.Contains(labels, `cache="`+cache+`"`) {
			continue
		}
		_, leStr, _ := strings.Cut(labels, `le="`)
		leStr = strings.TrimSuffix(leStr, `"`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q: %v", line, err)
		}
		byLe[le] += n
	}
	if len(byLe) == 0 {
		t.Fatalf("no /v1/compile cache=%s histogram in the scrape", cache)
	}
	les := make([]float64, 0, len(byLe))
	for le := range byLe {
		les = append(les, le)
	}
	sort.Float64s(les)
	cum := make([]uint64, len(les))
	for i, le := range les {
		cum[i] = byLe[le]
	}
	var out [3]time.Duration
	for i, p := range loadPercentiles {
		out[i] = obs.QuantileFromScrape(les, cum, float64(p)/100)
	}
	return out
}

// latencyDisagreement compares the client and server views of one phase
// and describes the first quantile outside tolerance ("" when they
// agree). The two instruments differ in bounded ways: a bucket estimate
// can sit up to one bucket width (2×) from the true order statistic; the
// client's clock covers HTTP overhead the server's does not; with fewer
// cores than client workers, requests queue upstream of the handler,
// dilating client latency by up to concurrency/GOMAXPROCS, and further by
// whatever external load the metronome measured. The tolerance is the
// product of those ratios, plus an absolute floor for the
// microsecond-scale warm phase widened by two of the worst stalls (one
// request spans two scheduler handoffs).
func latencyDisagreement(client loadPhase, srv [3]time.Duration, concurrency int) string {
	slack := 2*time.Millisecond + 2*client.maxStall
	ratio := 3.0 * max(1, float64(concurrency)/float64(runtime.GOMAXPROCS(0))) * client.dilation
	for i, p := range loadPercentiles {
		c, s := client.quantiles[i], srv[i]
		if (c - s).Abs() <= slack {
			continue
		}
		if s == 0 || float64(c)/float64(s) > ratio || float64(s)/float64(c) > ratio {
			return fmt.Sprintf("p%d client %v server %v (ratio bound %.2f, slack %v)", p, c, s, ratio, slack)
		}
	}
	return ""
}

// TestLatencyViewsAgree drives cold (every request a fresh key) and warm
// (every request cached) /v1/compile load and checks the service-level
// invariants: every request served, nothing shed, a full warm hit rate,
// warm bodies byte-identical to the cold one, warm throughput above
// cold, and client and server latency quantiles in agreement. Each phase
// runs 200 requests: with only a dozen samples, p95 and p99 are both the
// single slowest request, and one scheduler stall decides the check.
func TestLatencyViewsAgree(t *testing.T) {
	const concurrency, requests = 4, 200
	p, err := bench.ByName("oopack")
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.Source(bench.VariantAuto, bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// The queue covers the offered concurrency, so nothing should shed;
	// the cache holds every cold key plus the warm one.
	_, ts := newLimitedServer(t, Config{}, func(l *limits) { l.queue, l.resultEntries = 2*concurrency, requests+1 })
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = concurrency

	var shed atomic.Int64
	post := func(filename string) (cache string, body []byte, ok bool) {
		req, err := json.Marshal(api.CompileRequest{Filename: filename, Source: src, Config: api.Config{Mode: "inline"}})
		if err != nil {
			return "", nil, false
		}
		resp, err := client.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(req))
		if err != nil {
			return "", nil, false
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			shed.Add(1)
		}
		return resp.Header.Get("X-Oicd-Cache"), body, err == nil && resp.StatusCode == http.StatusOK
	}

	// Cold: the filename is part of the content address, so each request
	// is a distinct key and compiles. Scrape before the prewarm adds a
	// miss, while the miss series holds exactly the cold requests.
	cold := runLoad(requests, concurrency, func(i int) bool {
		_, _, ok := post(fmt.Sprintf("oopack-%d.icc", i))
		return ok
	})
	coldServer := scrapeCompileQuantiles(t, ts, "miss")

	_, coldBody, ok := post("oopack.icc")
	if !ok {
		t.Fatalf("prewarm failed: %s", coldBody)
	}
	var hits atomic.Int64
	var mismatch atomic.Bool
	warm := runLoad(requests, concurrency, func(int) bool {
		cache, body, ok := post("oopack.icc")
		if cache == "hit" {
			hits.Add(1)
		}
		if !bytes.Equal(body, coldBody) {
			mismatch.Store(true)
		}
		return ok
	})
	// The prewarm was a miss, so the hit series is exactly the warm phase.
	warmServer := scrapeCompileQuantiles(t, ts, "hit")

	if cold.errors != 0 || warm.errors != 0 {
		t.Errorf("errors: cold %d warm %d", cold.errors, warm.errors)
	}
	if n := shed.Load(); n != 0 {
		t.Errorf("shed %d requests below the queue limit", n)
	}
	if mismatch.Load() {
		t.Error("warm responses were not byte-identical to cold")
	}
	if n := hits.Load(); n != requests {
		t.Errorf("warm hit rate %d/%d, want 1.0", n, requests)
	}
	if warm.elapsed >= cold.elapsed {
		t.Errorf("warm phase %v not faster than cold %v", warm.elapsed, cold.elapsed)
	}
	if coldServer[0] == 0 || warmServer[0] == 0 {
		t.Errorf("server-side quantiles missing: cold %v warm %v", coldServer, warmServer)
	}
	for _, ph := range []struct {
		name   string
		client loadPhase
		server [3]time.Duration
	}{{"cold", cold, coldServer}, {"warm", warm, warmServer}} {
		if msg := latencyDisagreement(ph.client, ph.server, concurrency); msg != "" {
			t.Errorf("%s: server and client latency views disagree: %s (dilation %.2f, max stall %v)",
				ph.name, msg, ph.client.dilation, ph.client.maxStall)
		}
	}
}
