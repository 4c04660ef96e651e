package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aim/internal/serve"
)

// runServe hosts the HTTP/JSON front door. Unlike the load-generator
// mode, every malformed flag is a hard exit 1 with a message — a
// server that silently fell back to defaults would run unlimited and
// unwarmed without anyone noticing.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimserve serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8372", "listen address")
	workers := fs.Int("workers", 0, "executor pool size (0 = one per CPU)")
	queue := fs.Int("queue", 0, "admission queue depth; full = shed with 429 (0 = default 256)")
	maxBatch := fs.Int("max-batch", 0, "max requests per admission batch (0 = default 64)")
	clientRate := fs.Float64("client-rate", 0, "per-client admission rate in req/s, 429 beyond it (0 = unlimited)")
	clientBurst := fs.Int("client-burst", 0, "per-client token-bucket depth (0 = one second of -client-rate)")
	sloP95 := fs.Duration("slo-p95", 0, "p95 latency target arming the fidelity degradation ladder (0 = ladder off)")
	planCacheDir := fs.String("plan-cache-dir", "", "persist compiled plans to this directory (empty = in-process cache only)")
	warm := fs.String("mix", "", "scenario mix to precompile before listening: zoo|llm|vision or net:mode pairs (empty = compile on demand)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	var scen []scenario
	if *warm != "" {
		var err error
		scen, err = parseMix(*warm)
		if err != nil {
			fmt.Fprintf(stderr, "aimserve serve: %v\n", err)
			return 1
		}
	}
	srv, err := serve.New(serve.Options{
		Workers: *workers, Queue: *queue, MaxBatch: *maxBatch,
		RatePerClient: *clientRate, Burst: *clientBurst,
		TargetP95: *sloP95, PlanCacheDir: *planCacheDir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "aimserve serve: %v\n", err)
		return 1
	}
	defer srv.Close()
	for _, sc := range scen {
		// One analytic-tier request per deployment point pays each
		// compile before the listener opens; every tier then serves
		// from the warmed plan.
		if _, err := srv.Submit(context.Background(), serve.Request{Network: sc.net, Mode: sc.mode}); err != nil {
			fmt.Fprintf(stderr, "aimserve serve: warm %s:%s: %v\n", sc.net, sc.mode, err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "aimserve serve: %v\n", err)
		return 1
	}
	httpSrv := newHTTPServer(srv.Handler())
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	//aimlint:allow no-naked-go — signal watcher for graceful drain; blocks on the OS, not on simulation work
	go func() {
		<-sigs
		fmt.Fprintln(stdout, "aimserve serve: draining")
		// Drain answers in-flight requests and flips healthz to 503;
		// Shutdown then closes the listener and idle connections.
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if len(scen) > 0 {
		fmt.Fprintf(stdout, "aimserve serve: warmed %d deployment points (%d compiles)\n",
			len(scen), srv.Stats().Compiles)
	}
	fmt.Fprintf(stdout, "aimserve serve: listening on http://%s\n", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "aimserve serve: %v\n", err)
		return 1
	}
	return 0
}

// Listener timeouts for every HTTP server this command hosts. Header
// and request reads are bounded so a client that stalls mid-request
// cannot hold a connection open forever, and idle keep-alive
// connections are reaped. There is no write timeout: a spatial-tier
// answer can legitimately take longer than any fixed bound.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the listener timeouts.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
