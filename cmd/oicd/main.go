// Command oicd serves the objinline compiler over HTTP: POST /v1/compile,
// /v1/explain, and /v1/run against a content-addressed result cache with
// singleflight deduplication, a bounded worker pool with load shedding,
// and per-request deadlines enforced through the compiler and VM. See
// docs/SERVER.md for the API and docs/OBSERVABILITY.md for operating it:
// structured access logs (-log-format, -log-level), request tracing
// behind /debug/requests, Prometheus metrics at
// /metrics?format=prometheus, and pprof on a separate -debug-addr
// listener so profiles never ship on the serving port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"objinline/internal/cluster"
	"objinline/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main in testable form: it serves until ctx is canceled, then
// drains gracefully. When ready is non-nil it receives the bound address
// once the listener is accepting (so tests can use ":0").
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("oicd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	pool := fs.Int("pool", 0, "concurrent compile/run workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "requests queued beyond the pool before shedding with 429 (0 = 4x pool)")
	cacheEntries := fs.Int("cache-entries", 0, "result-cache LRU bound (0 = 256)")
	deadline := fs.Duration("deadline", 0, "default per-request deadline (0 = 10s)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on requested deadlines (0 = 60s)")
	maxSource := fs.Int("max-source-bytes", 0, "largest accepted source, in bytes (0 = 1 MiB)")
	nativeCacheEntries := fs.Int("native-cache-entries", 0, "native-run result-cache LRU bound (0 = 64)")
	sessionEntries := fs.Int("session-entries", 0, "live incremental-session LRU bound (0 = 64)")
	sessionTTL := fs.Duration("session-ttl", 0, "idle incremental sessions expire after this long (0 = 15m)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	requestRing := fs.Int("request-ring", 0, "per-request trace ring behind /debug/requests (0 = 128, negative disables)")
	logFormat := fs.String("log-format", "text", "access/operational log format: text or json")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, or error (access logs emit at info)")
	debugAddr := fs.String("debug-addr", "", "listen address for the debug surface (pprof + /debug/requests); empty disables it")
	peers := fs.String("peers", "", "comma-separated base URLs of every cluster instance (this one included); empty runs standalone")
	self := fs.String("self", "", "this instance's base URL as peers reach it (defaults to http://<addr>)")
	cacheDir := fs.String("cache-dir", "", "directory for the persistent cache tier (WAL + snapshot); empty disables it")
	probeInterval := fs.Duration("probe-interval", time.Second, "cluster peer health-probe interval")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "oicd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	logger, err := newLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "oicd: %v\n", err)
		return 2
	}

	// Listen before building the server: with -peers and no -self the
	// instance's own URL is derived from the bound address (":0" included).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "oicd: %v\n", err)
		return 1
	}

	// Persistent cache tier: open (and replay) before the server seeds
	// from it; closed last, after the final compaction in srv.Close.
	var store *cluster.Store
	if *cacheDir != "" {
		store, err = cluster.OpenStore(*cacheDir, cluster.StoreOptions{Logger: logger})
		if err != nil {
			fmt.Fprintf(stderr, "oicd: cache dir: %v\n", err)
			ln.Close()
			return 1
		}
		defer store.Close()
	}

	// Cluster membership: static peer list, probed for health. Self must
	// be a URL the peers can reach; the bound address is only a usable
	// default when -addr names a reachable interface.
	var cl *cluster.Cluster
	if *peers != "" {
		selfURL := *self
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		cl = cluster.New(cluster.Config{
			Self:          selfURL,
			Peers:         cluster.ParsePeers(*peers),
			ProbeInterval: *probeInterval,
			Logger:        logger,
		})
		cl.Start()
		defer cl.Close()
	}

	srv := server.New(server.Config{
		PoolSize:           *pool,
		QueueDepth:         *queue,
		CacheEntries:       *cacheEntries,
		DefaultDeadline:    *deadline,
		MaxDeadline:        *maxDeadline,
		MaxSourceBytes:     *maxSource,
		NativeCacheEntries: *nativeCacheEntries,
		SessionEntries:     *sessionEntries,
		SessionTTL:         *sessionTTL,
		RequestRingEntries: *requestRing,
		AccessLog:          logger,
		Cluster:            cl,
		Disk:               store,
	})
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "oicd: listening on http://%s\n", ln.Addr())

	// The debug surface (pprof, request introspection) binds its own
	// listener so profiles and traces never ship on the serving port —
	// operators firewall or port-forward it separately.
	var dhs *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "oicd: debug listener: %v\n", err)
			hs.Close()
			return 1
		}
		dhs = &http.Server{Handler: srv.DebugHandler()}
		go func() {
			if err := dhs.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		fmt.Fprintf(stdout, "oicd: debug surface on http://%s\n", dln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "oicd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	// Graceful shutdown: flip /healthz to 503 first so load-balancer
	// probes over kept-alive connections stop routing here, then stop
	// accepting and wait out in-flight requests (each holds its handler
	// goroutine, so Shutdown returns only once they finish) up to the
	// grace budget.
	srv.BeginDrain()
	fmt.Fprintln(stdout, "oicd: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if dhs != nil {
		dhs.Close()
	}
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintf(stderr, "oicd: drain incomplete: %v\n", err)
		hs.Close()
		srv.Close()
		return 1
	}
	// Drained: release the pinned incremental sessions before exiting.
	srv.Close()
	fmt.Fprintln(stdout, "oicd: bye")
	return 0
}

// newLogger builds the process logger from the -log-format and -log-level
// flags. Logs go to stderr: stdout stays a clean line protocol (listen
// addresses, lifecycle messages) for supervisors and tests.
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}
