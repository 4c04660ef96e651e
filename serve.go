package aim

import (
	"context"
	"net/http"
	"time"

	"aim/internal/serve"
)

// Server is the compile-once serving runtime (the paper's
// d-Matrix/Houmo scenario: a PIM chip serving models under a latency
// target or power envelope). A one-shot Run recompiles the whole
// offline pipeline — LHR proximal tuning over every layer, WDS, the
// HR-aware mapping SA — on every call; a Server compiles each
// deployment point once into a shared plan cache keyed by (network,
// mode, bits, δ, seed) and answers repeated requests from it, so
// serving cost drops to the runtime Execute phase alone.
//
// Concurrent Submit calls flow through an admission queue whose batch
// former groups them by plan; batches execute over a bounded worker
// pool reusing warm simulator state. Results are identical to a cold
// Run of the same Config — determinism holds for any worker count.
//
// The runtime is a four-layer stack: Handler is the HTTP transport,
// admission applies per-client rate limits and sheds load once the
// queue is full (ServerStats.Shed/RateLimited count the refusals),
// scheduling forms plan-keyed batches and runs the SLO degradation
// ladder (ServerOptions.TargetP95), and execution reuses warm
// simulator state. In-process Submit enters at admission, skipping
// the transport layer.
type Server struct {
	inner *serve.Server
}

// ServerOptions configures a Server. Zero values select defaults.
type ServerOptions struct {
	// Workers is the executor pool size (default GOMAXPROCS, at most
	// 4096): how many plan batches run concurrently.
	Workers int
	// MaxBatch bounds how many queued requests one admission round
	// drains (default 64).
	MaxBatch int
	// Queue is the admission queue depth (default 256, at most 1<<20).
	Queue int
	// PlanCacheDir, when non-empty, persists compiled plans to a
	// content-addressed store at that directory and loads matching
	// plans back on later runs. The cache key is the sha256 of
	// everything the compile consumes — network, mode, bits, δ, seed —
	// plus the compiler generation, so a restarted server (or another
	// replica sharing the directory) skips the cold compile, and a
	// code change that affects plan content invalidates every stale
	// entry at once. Corrupt or stale entries fall back to a
	// recompile; results are identical either way. Empty keeps the
	// cache in-process only.
	PlanCacheDir string
	// RatePerClient, when positive, admits at most that many requests
	// per second per client (token bucket, RateBurst deep) before the
	// server answers 429 + Retry-After over HTTP. Clients are named by
	// the X-AIM-Client header, the request body's client field, or the
	// remote address. Zero disables rate limiting; in-process Submit
	// carries no client identity and is never limited.
	RatePerClient float64
	// RateBurst is the token-bucket depth (default: one second of
	// RatePerClient, at least 1). Setting it without RatePerClient is
	// an error.
	RateBurst int
	// TargetP95 arms the SLO degradation ladder: when the p95 of
	// recent request latencies exceeds it, requests submitted with
	// auto fidelity step down a tier (spatial → packed → analytic),
	// and step back up once p95 falls under half the target. The
	// ladder changes only which tier serves — each tier's results stay
	// bit-identical, and tier switches reuse the already-compiled
	// plan. Zero disables the ladder (auto requests always get
	// spatial).
	TargetP95 time.Duration
}

// NewServer starts a serving runtime; callers must Close it. It fails
// only when PlanCacheDir is set but cannot be opened.
func NewServer(opt ServerOptions) (*Server, error) {
	inner, err := serve.New(serve.Options{
		Workers:       opt.Workers,
		MaxBatch:      opt.MaxBatch,
		Queue:         opt.Queue,
		PlanCacheDir:  opt.PlanCacheDir,
		RatePerClient: opt.RatePerClient,
		Burst:         opt.RateBurst,
		TargetP95:     opt.TargetP95,
	})
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// Close drains in-flight batches and stops the server. Idempotent;
// requests still queued are answered with an error.
func (s *Server) Close() { s.inner.Close() }

// Handler returns the HTTP front door: POST /v1/submit (JSON in, JSON
// out), GET /v1/metrics, GET /v1/healthz. Overload answers are 429
// with a Retry-After header; a draining server answers 503. Mount it
// on any http.Server — `aimserve serve` is a thin wrapper around
// exactly this.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Drain gates the HTTP front door (new requests get 503 +
// Retry-After, healthz flips to 503 so load balancers stop routing)
// and blocks until in-flight HTTP requests finish. In-process Submit
// keeps working; the graceful shutdown order is Drain, then Close.
func (s *Server) Drain() { s.inner.Drain() }

// request converts a public Config into the serving runtime's request.
func request(cfg Config) (serve.Request, error) {
	mode, err := cfg.Mode.internal()
	if err != nil {
		return serve.Request{}, err
	}
	fidelity, err := cfg.Fidelity.internal()
	if err != nil {
		return serve.Request{}, err
	}
	return serve.Request{
		Network:         cfg.Network,
		Mode:            mode,
		Beta:            cfg.Beta,
		Bits:            cfg.Bits,
		Delta:           cfg.WDSDelta,
		Seed:            cfg.Seed,
		Parallel:        cfg.Parallel,
		Fidelity:        fidelity,
		SpatialWindow:   cfg.SpatialWindow,
		SpatialSkipMV:   cfg.SpatialSkipMV,
		SpatialAdaptive: cfg.SpatialAdaptive,
	}, nil
}

// Submit serves one request: the first request for a deployment point
// pays the offline compile, every later one amortizes it to zero. The
// Result equals what Run(cfg) returns for the same Config.
func (s *Server) Submit(ctx context.Context, cfg Config) (Result, error) {
	req, err := request(cfg)
	if err != nil {
		return Result{}, err
	}
	resp, err := s.inner.Submit(ctx, req)
	if err != nil {
		return Result{}, err
	}
	return resultFrom(resp.Report, cfg.Mode), nil
}

// ServeList submits every request concurrently and returns results in
// request order — for a fixed seed and fixed list the slice is
// identical for any ServerOptions.Workers value.
func (s *Server) ServeList(ctx context.Context, cfgs []Config) ([]Result, error) {
	reqs := make([]serve.Request, len(cfgs))
	for i, cfg := range cfgs {
		req, err := request(cfg)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	resps, err := s.inner.ServeList(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(resps))
	for i, resp := range resps {
		out[i] = resultFrom(resp.Report, cfgs[i].Mode)
	}
	return out, nil
}

// ServerStats are the server's cumulative counters: requests,
// compiles, plan-cache and disk hits, batches, admission refusals,
// served requests per fidelity tier and the spatial tier's mesh-solve
// work.
type ServerStats = serve.Stats

// Stats snapshots the counters.
func (s *Server) Stats() ServerStats { return s.inner.Stats() }

// ServerMetrics summarizes served traffic: the counters plus wall
// time, request rate, latency percentiles, shed rate and the
// degradation ladder's position. Unlike Results these depend on load
// and scheduling: they are observability, not part of the
// deterministic contract.
type ServerMetrics = serve.Metrics

// Metrics snapshots the timing view.
func (s *Server) Metrics() ServerMetrics { return s.inner.Metrics() }

// TokensPerSec estimates serving throughput at the paper's Houmo
// MoMagic30 reference point (~17.5 tokens/s at the nominal 256 TOPS),
// scaled with the run's effective TOPS.
func (r Result) TokensPerSec() float64 { return serve.TokensPerSec(r.TOPS) }

// EnergyPerTokenMJ is the per-macro energy per generated token in
// millijoules: average macro power over the token rate.
func (r Result) EnergyPerTokenMJ() float64 {
	return serve.EnergyPerTokenMJ(r.MacroPowerMW, r.TOPS)
}
