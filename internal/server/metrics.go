package server

import (
	"sync/atomic"

	"objinline"
	"objinline/internal/cluster"
	"objinline/internal/obs"
)

// metrics is one server instance's counters and the registry that serves
// them, with every other source, as GET /metrics. Each Server owns its
// own set, so several servers in one process (the tests, the load
// generator) never share state.
type metrics struct {
	requests, compiles, runs, nativeRuns, shed, deadlineExceeded, inflight atomic.Int64

	// Cluster tier.
	forwards, forwardErrors, forwardFallbacks, diskUpgrades atomic.Int64

	registry *obs.Registry[scrape]
}

// scrape is one read of every locked source, taken once per GET /metrics
// so related series (hits and misses, the tier counts) come from the same
// instant. The disk and cluster fields stay zero on a standalone instance:
// the exposition's shape does not depend on configuration.
type scrape struct {
	results, native cacheStats
	sessions        sessionStats
	disk            cluster.StoreStats
	peersUp, peers  int
}

func (s *Server) scrape() scrape {
	sc := scrape{results: s.results.snapshot(), native: s.nativeRuns.snapshot(), sessions: s.sessions.snapshot()}
	if s.disk != nil {
		sc.disk = s.disk.Stats()
	}
	if s.cluster != nil {
		sc.peersUp, sc.peers = s.cluster.PeersUp()
	}
	return sc
}

// metricsEndpoints are the route patterns given latency-percentile keys in
// /metrics (histogram labels use the same strings; see obs.routeOf).
var metricsEndpoints = []string{
	"/v1/compile", "/v1/explain", "/v1/run",
	"/v1/session", "/v1/session/{id}",
}

func counter(name, help string, read func(*scrape) int64) obs.Metric[scrape] {
	return obs.Metric[scrape]{Name: name, Kind: obs.Counter, Help: help, Read: read}
}

func gauge(name, help string, read func(*scrape) int64) obs.Metric[scrape] {
	return obs.Metric[scrape]{Name: name, Kind: obs.Gauge, Help: help, Read: read}
}

func load(v *atomic.Int64) func(*scrape) int64 {
	return func(*scrape) int64 { return v.Load() }
}

// newMetrics declares every flat series of s exactly once.
func newMetrics(s *Server) *metrics {
	m := &metrics{}
	reg := []obs.Metric[scrape]{
		counter("requests_total", "HTTP requests received.", load(&m.requests)),
		counter("compiles_total", "Compilations executed (cache misses that ran).", load(&m.compiles)),
		counter("runs_total", "VM executions.", load(&m.runs)),
		counter("native_runs_total", "Native build-and-run executions.", load(&m.nativeRuns)),
		counter("shed_total", "Requests shed with 429 (worker queue full).", load(&m.shed)),
		counter("deadline_exceeded_total", "Requests canceled by their deadline.", load(&m.deadlineExceeded)),
		gauge("inflight", "Requests currently being served.", load(&m.inflight)),
		gauge("workers_busy", "Worker-pool tokens currently held.",
			func(*scrape) int64 { return int64(len(s.workers)) }),
		gauge("queue_depth", "Requests currently queued for a worker token.", load(&s.queued)),

		gauge("cache_entries", "Compile result-cache entries resident.",
			func(sc *scrape) int64 { return int64(sc.results.entries) }),
		gauge("cache_bytes", "Compile result-cache resident body bytes.",
			func(sc *scrape) int64 { return sc.results.bytes }),
		counter("cache_hits_total", "Compile result-cache hits.",
			func(sc *scrape) int64 { return sc.results.hits }),
		counter("cache_misses_total", "Compile result-cache misses.",
			func(sc *scrape) int64 { return sc.results.misses }),
		counter("cache_evictions_total", "Compile result-cache LRU evictions.",
			func(sc *scrape) int64 { return sc.results.evictions }),
		gauge("native_cache_entries", "Native-run result-cache entries resident.",
			func(sc *scrape) int64 { return int64(sc.native.entries) }),
		gauge("native_cache_bytes", "Native-run result-cache resident body bytes.",
			func(sc *scrape) int64 { return sc.native.bytes }),
		counter("native_cache_hits_total", "Native-run result-cache hits.",
			func(sc *scrape) int64 { return sc.native.hits }),
		counter("native_cache_misses_total", "Native-run result-cache misses.",
			func(sc *scrape) int64 { return sc.native.misses }),

		gauge("sessions_active", "Incremental sessions resident.",
			func(sc *scrape) int64 { return int64(sc.sessions.active) }),
		counter("sessions_created_total", "Incremental sessions created.",
			func(sc *scrape) int64 { return sc.sessions.creates }),
		counter("session_patches_total", "Session patches absorbed.",
			func(sc *scrape) int64 { return sc.sessions.patches }),
		counter("session_evictions_total", "Sessions evicted by the LRU bound.",
			func(sc *scrape) int64 { return sc.sessions.evictions }),
		counter("session_expirations_total", "Sessions expired by the idle TTL.",
			func(sc *scrape) int64 { return sc.sessions.expirations }),

		counter("forwards_total", "Requests forwarded to the key's ring owner.", load(&m.forwards)),
		counter("forward_errors_total", "Forward attempts that failed (network or peer error).", load(&m.forwardErrors)),
		counter("forward_local_fallback_total", "Forwards abandoned in favor of local compute.", load(&m.forwardFallbacks)),
		gauge("cluster_peers_up", "Cluster peers currently passing health probes.",
			func(sc *scrape) int64 { return int64(sc.peersUp) }),
		gauge("cluster_peers_total", "Cluster peers configured.",
			func(sc *scrape) int64 { return int64(sc.peers) }),
		counter("cluster_transitions_total", "Cluster peer up/down transitions observed.",
			func(*scrape) int64 {
				if s.cluster == nil {
					return 0
				}
				return s.cluster.Transitions()
			}),

		counter("disk_upgrades_total", "Disk-seeded cache entries recompiled on demand.", load(&m.diskUpgrades)),
		gauge("disk_wal_bytes", "Persistent cache write-ahead log size on disk.",
			func(sc *scrape) int64 { return sc.disk.WALBytes }),
		gauge("disk_snapshot_bytes", "Persistent cache snapshot size on disk.",
			func(sc *scrape) int64 { return sc.disk.SnapshotBytes }),
		counter("disk_appends_total", "Records appended to the persistent cache WAL.",
			func(sc *scrape) int64 { return sc.disk.Appends }),
		counter("disk_replayed_total", "Records replayed from disk at boot.",
			func(sc *scrape) int64 { return sc.disk.Replayed }),
		counter("disk_corrupt_tails_total", "Corrupt WAL tails detected and truncated.",
			func(sc *scrape) int64 { return sc.disk.CorruptTails }),
		counter("disk_compactions_total", "Persistent cache compactions completed.",
			func(sc *scrape) int64 { return sc.disk.Compactions }),
	}
	// Patches by the tier that absorbed them: the service-level view of
	// how much incremental reuse clients are getting.
	for _, t := range []struct{ tier, help string }{
		{objinline.TierReuse, "Session patches with byte-identical source; nothing recompiled."},
		{objinline.TierPatch, "Session patches absorbed by forwarding new constants into the prior build."},
		{objinline.TierReopt, "Session patches that reused the prior analysis and re-ran only the optimizer."},
		{objinline.TierSolve, "Session patches that spliced re-lowered bodies and re-ran the whole-program analysis."},
		{objinline.TierCold, "Session patches whose structural edit forced a full recompile."},
	} {
		reg = append(reg, counter("session_patch_tier_"+t.tier+"_total", t.help,
			func(sc *scrape) int64 { return sc.sessions.tiers[t.tier] }))
	}
	m.registry = obs.NewRegistry(s.scrape, s.obs.Latency(), metricsEndpoints, reg...)
	return m
}
