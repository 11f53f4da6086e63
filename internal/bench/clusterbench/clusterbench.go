// Package clusterbench is the distributed-oicd load generator behind
// `objbench -fig cluster` (`make bench-cluster`): it builds the real
// oicd binary, boots a multi-process cluster whose instances peer over
// loopback with per-instance persistent cache dirs, and measures the
// cluster tier's four claims end to end:
//
//   - cross-instance dedup: every key requested through every front-end,
//     with the cluster-wide compile count (scraped per instance) showing
//     one compile per key, not one per front;
//   - byte-identity: every front returns the same bytes for a key;
//   - failover: one instance SIGKILLed mid-run, with requests for its
//     keys answered by survivors (local fallback, then probe-driven
//     re-homing) and the recovery window reported;
//   - warm restart: the killed instance rebooted onto its surviving
//     cache dir answers its old keys as byte-identical disk-seeded hits
//     with zero recompiles.
package clusterbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"objinline/internal/bench"
	"objinline/internal/server/api"
)

// Options configures one cluster load run.
type Options struct {
	// Scale sizes the benchmark sources (small by default — the figure
	// measures the distribution tier, not compile cost).
	Scale bench.Scale
	// Instances is the cluster size (default 3).
	Instances int
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Keys is how many distinct compile keys the run spreads over the
	// ring (default 30). Each key is requested through every front.
	Keys int
	// BinPath reuses a prebuilt oicd binary; empty builds one.
	BinPath string
}

// Quantiles is a latency distribution summary.
type Quantiles struct {
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// PhaseStats is one phase's client-side aggregate.
type PhaseStats struct {
	Requests   int           `json:"requests"`
	Errors     int           `json:"errors"`
	Duration   time.Duration `json:"duration_ns"`
	Throughput float64       `json:"throughput_rps"`
	Quantiles
}

// InstanceStats is one instance's server-side view, scraped from its
// /metrics after the measured phases.
type InstanceStats struct {
	URL      string        `json:"url"`
	Requests float64       `json:"requests"`
	Compiles float64       `json:"compiles"`
	Forwards float64       `json:"forwards"`
	P50      time.Duration `json:"p50_ns"`
	P95      time.Duration `json:"p95_ns"`
	P99      time.Duration `json:"p99_ns"`
}

// FailoverStats reports the kill-one-instance episode.
type FailoverStats struct {
	Killed    string        `json:"killed"`
	Requests  int           `json:"requests"`
	Errors    int           `json:"errors"`
	Recovered bool          `json:"recovered"`
	Recovery  time.Duration `json:"recovery_ns"`
}

// RestartStats reports the warm-restart episode.
type RestartStats struct {
	Instance  string        `json:"instance"`
	Ready     time.Duration `json:"ready_ns"`
	WarmHit   bool          `json:"warm_hit"`
	Identical bool          `json:"identical"`
	Compiles  float64       `json:"compiles"`
}

// Result is one cluster run's report.
type Result struct {
	Instances   int    `json:"instances"`
	Keys        int    `json:"keys"`
	Concurrency int    `json:"concurrency"`
	Scale       string `json:"scale"`

	// Shared is the cold phase: every key through every front-end.
	Shared PhaseStats `json:"shared"`
	// Warm repeats the same requests; every one should be a cache hit.
	Warm PhaseStats `json:"warm"`

	PerInstance []InstanceStats `json:"per_instance"`

	// ClusterCompiles is compiles_total summed across instances after the
	// shared phase; DedupFactor = Shared.Requests / ClusterCompiles (the
	// ideal is Instances: each key compiled once however many fronts saw
	// it).
	ClusterCompiles float64 `json:"cluster_compiles"`
	DedupFactor     float64 `json:"dedup_factor"`
	// Identical reports that every response for a key matched the first
	// response for that key byte for byte, across fronts and phases.
	Identical bool    `json:"identical"`
	HitRate   float64 `json:"hit_rate"`

	Failover FailoverStats `json:"failover"`
	Restart  RestartStats  `json:"restart"`
}

// instance is one running oicd process.
type instance struct {
	url  string
	addr string
	dir  string
	cmd  *exec.Cmd
	logs *bytes.Buffer
}

// BuildBinary compiles the oicd daemon into dir and returns its path.
func BuildBinary(dir string) (string, error) {
	bin := dir + "/oicd"
	cmd := exec.Command("go", "build", "-o", bin, "objinline/cmd/oicd")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("clusterbench: go build oicd: %v\n%s", err, out)
	}
	return bin, nil
}

// start boots one instance and waits for /healthz.
func start(bin string, inst *instance, peers string) error {
	inst.logs = &bytes.Buffer{}
	cmd := exec.Command(bin,
		"-addr", inst.addr,
		"-peers", peers,
		"-cache-dir", inst.dir,
		"-probe-interval", "200ms",
		"-log-level", "error",
	)
	cmd.Stdout = inst.logs
	cmd.Stderr = inst.logs
	if err := cmd.Start(); err != nil {
		return err
	}
	inst.cmd = cmd
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(inst.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	return fmt.Errorf("clusterbench: instance %s never became ready\n%s", inst.addr, inst.logs)
}

// stopGracefully SIGTERMs the instance and waits for the drain.
func stopGracefully(inst *instance) {
	if inst.cmd == nil || inst.cmd.Process == nil {
		return
	}
	inst.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { inst.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		inst.cmd.Process.Kill()
		<-done
	}
	inst.cmd = nil
}

// scrape pulls one instance's flat JSON /metrics.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// Run executes the cluster load run.
func Run(opts Options) (*Result, error) {
	if opts.Instances <= 0 {
		opts.Instances = 3
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Keys <= 0 {
		opts.Keys = 30
	}

	work, err := os.MkdirTemp("", "oicd-clusterbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin := opts.BinPath
	if bin == "" {
		if bin, err = BuildBinary(work); err != nil {
			return nil, err
		}
	}

	// Reserve one port per instance so every instance can name the whole
	// cluster before any of them boots.
	insts := make([]*instance, opts.Instances)
	peerList := ""
	for i := range insts {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		insts[i] = &instance{addr: addr, url: "http://" + addr, dir: fmt.Sprintf("%s/cache-%d", work, i)}
		if i > 0 {
			peerList += ","
		}
		peerList += "http://" + addr
	}
	for _, inst := range insts {
		if err := start(bin, inst, peerList); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, inst := range insts {
			stopGracefully(inst)
		}
	}()

	// One source per key: benchmark programs cycled, keyed by filename
	// (the filename is part of the content address).
	var sources []string
	for _, p := range bench.Programs {
		src, err := p.Source(bench.VariantAuto, opts.Scale)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src)
	}
	type key struct {
		filename string
		source   string
	}
	keys := make([]key, opts.Keys)
	for i := range keys {
		keys[i] = key{filename: fmt.Sprintf("cluster-%d.icc", i), source: sources[i%len(sources)]}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: opts.Concurrency}}
	defer client.CloseIdleConnections()
	post := func(front string, k key) (status int, cacheHdr, owner string, body []byte, err error) {
		reqBody, err := json.Marshal(api.CompileRequest{
			Filename: k.filename,
			Source:   k.source,
			Config:   api.Config{Mode: "inline"},
		})
		if err != nil {
			return 0, "", "", nil, err
		}
		resp, err := client.Post(front+"/v1/compile", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return 0, "", "", nil, err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Oicd-Cache"), resp.Header.Get("X-Oicd-Owner"), body, err
	}

	fire := func(n int, do func(i int) bool) PhaseStats {
		latencies := make([]time.Duration, n)
		errs := make([]bool, n)
		var next atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < opts.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					t0 := time.Now()
					ok := do(i)
					latencies[i] = time.Since(t0)
					errs[i] = !ok
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		st := PhaseStats{
			Requests: n,
			Duration: elapsed,
			Quantiles: Quantiles{
				P50: latencies[n/2], P95: latencies[n*95/100], P99: latencies[n*99/100],
			},
		}
		for _, e := range errs {
			if e {
				st.Errors++
			}
		}
		if secs := elapsed.Seconds(); secs > 0 {
			st.Throughput = float64(n) / secs
		}
		return st
	}

	res := &Result{
		Instances:   opts.Instances,
		Keys:        opts.Keys,
		Concurrency: opts.Concurrency,
		Scale:       opts.Scale.String(),
		Identical:   true,
	}

	// Shared phase: every key through every front. The first response for
	// a key pins the reference bytes; every later one must match.
	refBody := make([][]byte, opts.Keys)
	owners := make([]string, opts.Keys)
	var refMu sync.Mutex
	var mismatch atomic.Bool
	n := opts.Keys * opts.Instances
	res.Shared = fire(n, func(i int) bool {
		ki, fi := i/opts.Instances, i%opts.Instances
		status, _, owner, body, err := post(insts[fi].url, keys[ki])
		if err != nil || status != http.StatusOK {
			return false
		}
		refMu.Lock()
		if refBody[ki] == nil {
			refBody[ki] = body
			owners[ki] = owner
		} else if !bytes.Equal(body, refBody[ki]) {
			mismatch.Store(true)
		}
		refMu.Unlock()
		return true
	})

	for _, inst := range insts {
		m, err := scrape(inst.url)
		if err != nil {
			return nil, fmt.Errorf("clusterbench: scrape %s: %w", inst.url, err)
		}
		res.PerInstance = append(res.PerInstance, InstanceStats{
			URL:      inst.url,
			Requests: m["requests_total"],
			Compiles: m["compiles_total"],
			Forwards: m["forwards_total"],
			P50:      time.Duration(m["latency_v1_compile_p50_ns"]),
			P95:      time.Duration(m["latency_v1_compile_p95_ns"]),
			P99:      time.Duration(m["latency_v1_compile_p99_ns"]),
		})
		res.ClusterCompiles += m["compiles_total"]
	}
	if res.ClusterCompiles > 0 {
		res.DedupFactor = float64(res.Shared.Requests) / res.ClusterCompiles
	}

	// Warm phase: the same requests again — every one a hit, same bytes.
	var hits atomic.Int64
	res.Warm = fire(n, func(i int) bool {
		ki, fi := i/opts.Instances, i%opts.Instances
		status, cacheHdr, _, body, err := post(insts[fi].url, keys[ki])
		if err != nil || status != http.StatusOK {
			return false
		}
		if cacheHdr == "hit" {
			hits.Add(1)
		}
		refMu.Lock()
		if !bytes.Equal(body, refBody[ki]) {
			mismatch.Store(true)
		}
		refMu.Unlock()
		return true
	})
	res.HitRate = float64(hits.Load()) / float64(n)
	res.Identical = !mismatch.Load()

	// Failover: SIGKILL the owner of some key, then hammer that key
	// through a surviving front until it answers 200 again. The first
	// answers come from the survivor's local fallback; within a couple of
	// probe intervals the ring ejects the corpse and re-homes its keys.
	victimIdx, victimKey := -1, -1
	for ki, owner := range owners {
		for vi := range insts {
			if owner == insts[vi].url && vi != 0 {
				victimIdx, victimKey = vi, ki
				break
			}
		}
		if victimIdx >= 0 {
			break
		}
	}
	if victimIdx < 0 {
		return nil, fmt.Errorf("clusterbench: no key owned by a non-front-0 instance (owners: %v)", owners)
	}
	victim := insts[victimIdx]
	res.Failover.Killed = victim.url
	victim.cmd.Process.Kill()
	victim.cmd.Wait()
	victim.cmd = nil

	killT0 := time.Now()
	recoverDeadline := killT0.Add(10 * time.Second)
	for time.Now().Before(recoverDeadline) {
		status, _, _, _, err := post(insts[0].url, keys[victimKey])
		res.Failover.Requests++
		if err == nil && status == http.StatusOK {
			res.Failover.Recovered = true
			res.Failover.Recovery = time.Since(killT0)
			break
		}
		res.Failover.Errors++
		time.Sleep(50 * time.Millisecond)
	}

	// Warm restart: boot the victim back onto its surviving cache dir and
	// ask it (directly) for a key it owned before dying — the answer must
	// be a disk-seeded, byte-identical hit with zero recompiles.
	res.Restart.Instance = victim.url
	restartT0 := time.Now()
	if err := start(bin, victim, peerList); err != nil {
		return nil, err
	}
	res.Restart.Ready = time.Since(restartT0)
	status, cacheHdr, _, body, err := post(victim.url, keys[victimKey])
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("clusterbench: warm-restart query: status %d err %v", status, err)
	}
	res.Restart.WarmHit = cacheHdr == "hit"
	res.Restart.Identical = bytes.Equal(body, refBody[victimKey])
	if m, err := scrape(victim.url); err == nil {
		res.Restart.Compiles = m["compiles_total"]
	}
	return res, nil
}

// Print renders the result as the -fig cluster table.
func Print(w io.Writer, r *Result) {
	fmt.Fprintf(w, "oicd cluster (%d instances, %d keys x %d fronts, concurrency %d, scale %s)\n",
		r.Instances, r.Keys, r.Instances, r.Concurrency, r.Scale)
	rnd := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	phase := func(name string, st PhaseStats) {
		fmt.Fprintf(w, "  %-7s %8.1f req/s   errors %d   p50 %8s   p95 %8s   p99 %8s\n",
			name, st.Throughput, st.Errors, rnd(st.P50), rnd(st.P95), rnd(st.P99))
	}
	phase("shared", r.Shared)
	phase("warm", r.Warm)
	for i, inst := range r.PerInstance {
		fmt.Fprintf(w, "  instance %d  %s  requests %.0f  compiles %.0f  forwards %.0f  p50 %s  p95 %s  p99 %s\n",
			i, inst.URL, inst.Requests, inst.Compiles, inst.Forwards,
			rnd(inst.P50), rnd(inst.P95), rnd(inst.P99))
	}
	fmt.Fprintf(w, "  dedup factor %.1fx (%d requests, %.0f compiles cluster-wide; ideal %dx)   hit rate %.0f%%   byte-identical %v\n",
		r.DedupFactor, r.Shared.Requests, r.ClusterCompiles, r.Instances, 100*r.HitRate, r.Identical)
	fmt.Fprintf(w, "  failover: killed %s   recovered %v in %s (%d requests, %d errors)\n",
		r.Failover.Killed, r.Failover.Recovered, r.Failover.Recovery.Round(time.Millisecond),
		r.Failover.Requests, r.Failover.Errors)
	fmt.Fprintf(w, "  warm restart: %s ready in %s   disk-seeded hit %v   byte-identical %v   recompiles %.0f\n",
		r.Restart.Instance, r.Restart.Ready.Round(time.Millisecond),
		r.Restart.WarmHit, r.Restart.Identical, r.Restart.Compiles)
}
