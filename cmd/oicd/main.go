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

// flags holds oicd's parsed command line.
type flags struct {
	addr, logFormat, logLevel, debugAddr string
	peers, self, cacheDir                string
	grace, probeInterval                 time.Duration
}

// newFlagSet defines oicd's flags (docs/SERVER.md's flag table lists
// each one) on a FlagSet that reports errors to stderr.
func newFlagSet(stderr io.Writer) (*flag.FlagSet, *flags) {
	fs := flag.NewFlagSet("oicd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &flags{}
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8372", "listen address")
	fs.DurationVar(&f.grace, "grace", 10*time.Second, "shutdown drain budget for in-flight requests")
	fs.StringVar(&f.logFormat, "log-format", "text", "access/operational log format: text or json")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, or error (access logs emit at info)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "listen address for the debug surface (pprof + /debug/requests); empty disables it")
	fs.StringVar(&f.peers, "peers", "", "comma-separated base URLs of every cluster instance (this one included); empty runs standalone")
	fs.StringVar(&f.self, "self", "", "this instance's base URL as peers reach it (defaults to http://<addr>)")
	fs.StringVar(&f.cacheDir, "cache-dir", "", "directory for the persistent cache tier (WAL + snapshot); empty disables it")
	fs.DurationVar(&f.probeInterval, "probe-interval", time.Second, "cluster peer health-probe interval")
	return fs, f
}

// run is main in testable form: it serves until ctx is canceled, then
// drains gracefully. When ready is non-nil it receives the bound address
// once the listener is accepting (so tests can use ":0").
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs, f := newFlagSet(stderr)
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
	logger, err := newLogger(stderr, f.logFormat, f.logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "oicd: %v\n", err)
		return 2
	}

	// Listen before building the server: with -peers and no -self the
	// instance's own URL is derived from the bound address (":0" included).
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		fmt.Fprintf(stderr, "oicd: %v\n", err)
		return 1
	}

	// Persistent cache tier: open (and replay) before the server seeds
	// from it; closed last, after the final compaction in srv.Close.
	var store *cluster.Store
	if f.cacheDir != "" {
		store, err = cluster.OpenStore(f.cacheDir, logger)
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
	if f.peers != "" {
		selfURL := f.self
		if selfURL == "" {
			selfURL = "http://" + ln.Addr().String()
		}
		cl = cluster.New(cluster.Config{
			Self:          selfURL,
			Peers:         cluster.ParsePeers(f.peers),
			ProbeInterval: f.probeInterval,
			Logger:        logger,
		})
		cl.Start()
		defer cl.Close()
	}

	srv := server.New(server.Config{AccessLog: logger, Cluster: cl, Disk: store})
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "oicd: listening on http://%s\n", ln.Addr())

	// The debug surface (pprof, request introspection) binds its own
	// listener so profiles and traces never ship on the serving port —
	// operators firewall or port-forward it separately.
	var dhs *http.Server
	if f.debugAddr != "" {
		dln, err := net.Listen("tcp", f.debugAddr)
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
	sctx, cancel := context.WithTimeout(context.Background(), f.grace)
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
