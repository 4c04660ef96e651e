// Package serve is the compile-once/serve-many runtime (the paper's
// d-Matrix/Houmo serving scenario, §1/§6.8), structured as four
// explicit layers:
//
//	transport  (http.go)       HTTP/JSON front door: decode/validate,
//	                           per-client identification, graceful drain
//	admission  (admission.go)  per-client token-bucket rate limiting and
//	                           a bounded queue with explicit load-shedding
//	scheduling (scheduling.go, batch former grouping admitted requests by
//	            ladder.go)     plan, plus the SLO-driven fidelity
//	                           degradation ladder
//	execution  (execution.go)  executor pool running compiled plans over
//	                           warm simulator state
//
// A concurrency-safe plan cache keyed by everything the offline
// compiler consumes (planstore.Key) sits under the execution layer, so
// repeated requests for one deployment point amortize the expensive
// offline phase (LHR proximal tuning, WDS, HR-aware mapping SA) to
// zero. It is the only in-memory copy of a plan; with
// Options.PlanCacheDir set, internal/planstore persists plans below it.
// Per-request results are identical to a cold one-shot run; the
// degradation ladder only ever changes *which* fidelity tier serves a
// request, never the bytes a given tier produces.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aim/internal/core"
	"aim/internal/model"
	"aim/internal/planstore"
	"aim/internal/sim"
	"aim/internal/vf"
)

// ZooSeed is the fixed seed the evaluation zoo's synthetic weights are
// generated from (the same reference point aim.Run uses), so one
// network name always denotes one set of weights.
const ZooSeed = 2025

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// Request selects one serving job: a workload and a deployment point.
// The zero value of every knob means "default"; Delta follows the
// public API convention (0 = default δ, core.DisableWDS = WDS off).
type Request struct {
	// Network is one of the zoo workloads.
	Network string
	// Mode is the operating policy (sprint or low-power).
	Mode vf.Mode
	// Beta is IR-Booster's stability horizon in cycles (runtime knob,
	// default 50; not part of the plan key).
	Beta int
	// Bits is the quantization width (default 8, range 2..16).
	Bits int
	// Delta is the WDS δ: 0 means the default 16, core.DisableWDS
	// disables the pass, anything else must be a power of two.
	Delta int
	// Seed drives every stochastic component (default 1).
	Seed int64
	// Parallel bounds the per-request wave-sharding pool (default 1:
	// a serving fleet gets its parallelism from concurrent requests,
	// not intra-request sharding). Results are bit-identical for any
	// value; negative values are rejected.
	Parallel int
	// Fidelity selects the simulator's modelling tier (runtime knob,
	// default sim.AnalyticToggles; NOT part of the plan key — plans
	// compile identically at every tier, so one cached plan serves
	// analytic, packed and spatial requests alike). Unknown values are
	// rejected at admission.
	Fidelity sim.Fidelity
	// SpatialWindow, SpatialSkipMV and SpatialAdaptive tune the
	// SpatialPDN tier's solve cadence and incremental-solve gates
	// (runtime knobs, NOT part of the plan key; zero values are the
	// reference behaviour — fixed DefaultSpatialWindow cadence, no
	// window skipping). Negative or non-finite values are rejected at
	// admission. They only matter for requests that execute at the
	// spatial tier; results remain bit-identical across worker counts
	// at any setting.
	SpatialWindow   int
	SpatialSkipMV   float64
	SpatialAdaptive bool
	// AdaptFidelity hands the tier choice to the scheduling layer's
	// SLO degradation ladder: the request serves at whatever tier the
	// ladder holds when its batch executes (SpatialPDN when idle,
	// stepping down under overload), overriding Fidelity. The served
	// tier is reported in Response.Tier. Which tier serves depends on
	// load — but the bytes a given tier produces never change.
	AdaptFidelity bool
	// Client identifies the submitting client to the admission layer's
	// per-client rate limiter (the HTTP transport fills it from the
	// X-AIM-Client header or the remote address). Empty means no
	// client identity: such requests are never rate-limited. Client is
	// not part of the plan key and never affects results.
	Client string
}

// normalize applies defaults, validates the compile-relevant knobs and
// derives the plan key. The returned Request has canonical fields
// (Delta is the actual δ, 0 = disabled).
func (r Request) normalize() (Request, planstore.Key, error) {
	// Reject unknown networks at admission: a daemon fed arbitrary
	// names must not grow one negative plan-cache entry per typo.
	if !model.ValidName(r.Network) {
		return r, planstore.Key{}, fmt.Errorf("serve: unknown network %q (want one of %v)", r.Network, model.Names())
	}
	if r.Mode != vf.Sprint && r.Mode != vf.LowPower {
		return r, planstore.Key{}, fmt.Errorf("serve: unknown mode %d", int(r.Mode))
	}
	if r.Beta <= 0 {
		r.Beta = 50
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Bits == 0 {
		r.Bits = 8
	}
	if r.Bits < 2 || r.Bits > 16 {
		return r, planstore.Key{}, fmt.Errorf("serve: bits %d out of range [2,16]", r.Bits)
	}
	if r.Parallel == 0 {
		r.Parallel = 1
	}
	if err := r.runtime().Validate(); err != nil {
		return r, planstore.Key{}, fmt.Errorf("serve: %w", err)
	}
	d, err := core.ResolveWDSDelta(r.Delta)
	if err != nil {
		return r, planstore.Key{}, fmt.Errorf("serve: %w", err)
	}
	r.Delta = d
	key := planstore.Key{Network: r.Network, Mode: r.Mode.String(), Bits: r.Bits, Delta: d, Seed: r.Seed}
	return r, key, nil
}

// runtime gathers the request's Execute-side knobs. Request keeps them
// as flat fields so callers can set them in composite literals.
func (r Request) runtime() sim.Runtime {
	return sim.Runtime{
		Beta:            r.Beta,
		Parallel:        r.Parallel,
		Fidelity:        r.Fidelity,
		SpatialWindow:   r.SpatialWindow,
		SpatialSkipMV:   r.SpatialSkipMV,
		SpatialAdaptive: r.SpatialAdaptive,
	}
}

// Pipeline normalizes r — defaults, validation, δ resolution, exactly
// as admission does — and builds the core pipeline a server executes
// it with (without the server's warm simulator state). It is the one
// request-to-pipeline path: a one-shot run built from it answers what
// a served request answers.
func Pipeline(r Request) (*core.Pipeline, error) {
	nr, _, err := r.normalize()
	if err != nil {
		return nil, err
	}
	return pipelineFor(nr), nil
}

// pipelineFor configures a core pipeline from a normalized request.
// Compile-relevant fields mirror the plan key; runtime knobs ride
// along per request.
func pipelineFor(r Request) *core.Pipeline {
	p := core.NewPipeline(r.Mode)
	p.Seed = r.Seed
	p.Bits = r.Bits
	p.WDSDelta = r.Delta
	p.Runtime = r.runtime()
	return p
}

// Response answers one request.
type Response struct {
	// Report is the full before/after comparison. For a fixed request
	// it is deterministic: identical to what a cold one-shot run
	// returns, no matter how the server batched or parallelized.
	Report core.Report
	// Tier is the fidelity tier that actually served the request:
	// Request.Fidelity, unless AdaptFidelity let the degradation
	// ladder choose.
	Tier sim.Fidelity
	// PlanCached reports whether the plan already existed when the
	// request's batch executed (scheduling-dependent; excluded from
	// the deterministic aggregate report).
	PlanCached bool
	// Latency is admission-to-answer wall time (non-deterministic).
	Latency time.Duration
}

// Options configures a Server. Zero values select defaults; invalid
// values (negative depths, rates or targets) are rejected by Validate
// at construction — never silently clamped.
type Options struct {
	// Workers is the executor pool size (default GOMAXPROCS, at most
	// 4096): how many plan batches run concurrently.
	Workers int
	// MaxBatch bounds how many queued requests the batch former drains
	// into one admission round (default 64).
	MaxBatch int
	// Queue is the admission queue depth (default 256, at most
	// 1<<20). When the queue is full, Submit sheds the request with an
	// *OverloadError instead of queueing unbounded latency.
	Queue int
	// PlanCacheDir, when non-empty, backs the plan cache with a
	// persistent content-addressed store at that directory
	// (internal/planstore): compiled plans are written through to disk
	// and a restarted or additional replica loads them instead of
	// recompiling. Empty keeps the historical in-process-only cache.
	PlanCacheDir string
	// RatePerClient, when positive, enforces a token-bucket limit of
	// that many requests per second per client identity
	// (Request.Client); requests over the limit are refused with an
	// *OverloadError carrying a Retry-After hint. Zero disables the
	// limiter. Requests with an empty Client are never rate-limited.
	RatePerClient float64
	// Burst is the token-bucket depth (default: RatePerClient rounded
	// up, minimum 1): how many back-to-back requests one client may
	// issue before the steady rate applies. Requires RatePerClient.
	Burst int
	// TargetP95 enables the SLO-driven fidelity degradation ladder:
	// when the recent p95 admission-to-answer latency exceeds the
	// target, requests with AdaptFidelity step down one fidelity tier
	// (SpatialPDN → PackedToggles → AnalyticToggles); when p95 falls
	// back under half the target, they step back up. Zero disables the
	// ladder — adaptive requests then always serve the top tier.
	TargetP95 time.Duration
	// planStore, when non-nil, backs the plan cache with this exact
	// store instead of opening PlanCacheDir — the seam the
	// fault-injection tests use to run the full serving stack over a
	// misbehaving backend. Unexported on purpose: production callers
	// configure persistence through PlanCacheDir only.
	planStore *planstore.Store
}

// maxWorkers and maxQueue bound the executor pool and the admission
// queue: New starts one goroutine per worker and allocates two
// channels of the queue depth, so an unbounded value would exhaust
// memory (or panic in make) instead of failing validation.
const (
	maxWorkers = 1 << 12
	maxQueue   = 1 << 20
)

// Validate rejects option values that cannot mean anything: negative
// pool sizes, queue depths, rate limits or SLO targets, pools or
// queues past their fixed bounds, and a burst without a rate. Zero
// values are valid and select defaults.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("serve: negative workers %d (0 = one per CPU)", o.Workers)
	}
	if o.Workers > maxWorkers {
		return fmt.Errorf("serve: workers %d over the limit %d", o.Workers, maxWorkers)
	}
	if o.MaxBatch < 0 {
		return fmt.Errorf("serve: negative max batch %d (0 = default 64)", o.MaxBatch)
	}
	if o.Queue < 0 {
		return fmt.Errorf("serve: negative queue depth %d (0 = default 256)", o.Queue)
	}
	if o.Queue > maxQueue {
		return fmt.Errorf("serve: queue depth %d over the limit %d", o.Queue, maxQueue)
	}
	if o.RatePerClient < 0 {
		return fmt.Errorf("serve: negative per-client rate %g (0 = unlimited)", o.RatePerClient)
	}
	if math.IsNaN(o.RatePerClient) || math.IsInf(o.RatePerClient, 0) {
		return fmt.Errorf("serve: non-finite per-client rate %g", o.RatePerClient)
	}
	if o.Burst < 0 {
		return fmt.Errorf("serve: negative rate-limit burst %d", o.Burst)
	}
	if o.Burst > 0 && o.RatePerClient == 0 {
		return fmt.Errorf("serve: rate-limit burst %d without a per-client rate", o.Burst)
	}
	if o.TargetP95 < 0 {
		return fmt.Errorf("serve: negative SLO target %v (0 = ladder disabled)", o.TargetP95)
	}
	return nil
}

// pending is one admitted request waiting for its answer.
type pending struct {
	req   Request
	key   planstore.Key
	reply chan answer
	enq   time.Time
}

type answer struct {
	resp Response
	err  error
}

// batch is one plan's worth of an admission round.
type batch struct {
	key  planstore.Key
	reqs []*pending
}

// Server is the layered serving runtime. Submit admits a request
// through the admission layer (rate limit, bounded queue with
// shedding), the scheduling layer's batch former groups concurrent
// admissions by plan key and its degradation ladder picks the fidelity
// tier for adaptive requests, and the execution layer's pool runs each
// batch against the shared plan cache, reusing warm simulator state.
// The transport layer (Handler) puts an HTTP/JSON front door on the
// same path.
type Server struct {
	opt     Options
	cache   *Cache
	warm    *sim.WarmState
	limiter *limiter // nil: no per-client rate limiting
	ladder  *ladder
	admit   chan *pending
	exec    chan *batch
	stop    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	// Transport state: the drain gate and the in-flight HTTP request
	// tracker (see http.go). draining is set, and inflight grown, only
	// under drainMu. httpInflight mirrors the WaitGroup as an
	// observable count.
	drainMu      sync.Mutex
	draining     atomic.Bool
	inflight     sync.WaitGroup
	httpInflight atomic.Int64

	// Admission counters and the shed Retry-After estimator.
	shed        atomic.Int64
	rateLimited atomic.Int64
	ewmaLatency atomic.Int64 // nanoseconds; exponential moving average

	// Execution counters: requests served per fidelity tier, and the
	// spatial tier's mesh-solve work accumulated across every executed
	// stage — what makes the cost of the ladder's fidelity decisions
	// observable from /v1/metrics.
	served           [3]atomic.Int64
	spatialSolves    atomic.Int64
	spatialSkips     atomic.Int64
	spatialVCycles   atomic.Int64
	spatialSaturated atomic.Int64

	mu       sync.Mutex
	requests int64
	batches  int64
	batched  int64
	// latencies is a bounded ring of the most recent answers — a
	// long-lived daemon must not retain one sample per request
	// forever. latHead is the next write slot once the ring is full.
	latencies []time.Duration
	latHead   int
	started   time.Time
}

// latencyWindow bounds the percentile ring: large enough that p99 is
// meaningful, small enough that a daemon's memory stays flat.
const latencyWindow = 4096

// New validates the options, then starts a server and its goroutines;
// callers must Close it. It fails on invalid options or when a
// requested plan-cache directory cannot be opened.
func New(opt Options) (*Server, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Workers == 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.MaxBatch == 0 {
		opt.MaxBatch = 64
	}
	if opt.Queue == 0 {
		opt.Queue = 256
	}
	store := opt.planStore
	if store == nil && opt.PlanCacheDir != "" {
		var err error
		if store, err = planstore.Open(opt.PlanCacheDir); err != nil {
			return nil, err
		}
	}
	s := &Server{
		opt:     opt,
		cache:   NewCache(store),
		warm:    sim.NewWarmState(),
		ladder:  newLadder(opt.TargetP95),
		admit:   make(chan *pending, opt.Queue),
		exec:    make(chan *batch, opt.Queue),
		stop:    make(chan struct{}),
		started: time.Now(), //aimlint:allow no-wallclock — server start time anchors the req/s metric only; Render output never reads it
	}
	if opt.RatePerClient > 0 {
		s.limiter = newLimiter(opt.RatePerClient, opt.Burst)
	}
	s.wg.Add(1 + opt.Workers)
	go s.former()
	for i := 0; i < opt.Workers; i++ {
		go s.executor()
	}
	return s, nil
}

// Close stops the server: formed batches finish, requests still in the
// admission queue are answered with ErrClosed. Idempotent.
func (s *Server) Close() {
	s.once.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// Stats are the server's cumulative counters.
type Stats struct {
	// Requests counts answered requests.
	Requests int64
	// Compiles counts plan compilations (one per distinct key).
	Compiles int64
	// PlanHits counts cache lookups answered by an existing entry.
	PlanHits int64
	// DiskHits counts plans loaded from the persistent store instead
	// of compiled (always 0 without Options.PlanCacheDir).
	DiskHits int64
	// Batches counts batches formed; MeanBatch is requests per batch.
	Batches   int64
	MeanBatch float64
	// Shed counts requests refused because the admission queue was
	// full; RateLimited counts requests refused by the per-client
	// limiter. Both are answered with *OverloadError (HTTP 429).
	Shed        int64
	RateLimited int64
	// ServedAnalytic/ServedPacked/ServedSpatial count answered
	// requests per fidelity tier actually served — under the
	// degradation ladder one deployment point spreads across tiers
	// without recompiling.
	ServedAnalytic, ServedPacked, ServedSpatial int64
	// SpatialSolves/SpatialSkips/SpatialVCycles count the spatial
	// tier's mesh-solve work across all served requests: solves run,
	// windows answered from a held field, and total V-cycles.
	// SpatialSaturated counts solves that exhausted their iteration
	// budget without converging — nonzero means the tier is quietly
	// losing accuracy (the internal/sim spatial tests fail on it).
	SpatialSolves, SpatialSkips, SpatialVCycles, SpatialSaturated int64
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Requests:         s.requests,
		Compiles:         s.cache.Compiles(),
		PlanHits:         s.cache.Hits(),
		DiskHits:         s.cache.DiskHits(),
		Batches:          s.batches,
		Shed:             s.shed.Load(),
		RateLimited:      s.rateLimited.Load(),
		ServedAnalytic:   s.served[sim.AnalyticToggles].Load(),
		ServedPacked:     s.served[sim.PackedToggles].Load(),
		ServedSpatial:    s.served[sim.SpatialPDN].Load(),
		SpatialSolves:    s.spatialSolves.Load(),
		SpatialSkips:     s.spatialSkips.Load(),
		SpatialVCycles:   s.spatialVCycles.Load(),
		SpatialSaturated: s.spatialSaturated.Load(),
	}
	if s.batches > 0 {
		st.MeanBatch = float64(s.batched) / float64(s.batches)
	}
	return st
}

// Metrics summarizes served traffic: wall-clock rate, latency
// percentiles, shed rate and the ladder position. Unlike the
// per-request Reports these depend on load and scheduling, so they are
// reported beside — never inside — the deterministic aggregate (see
// Render).
type Metrics struct {
	Stats
	// Wall is the time since the server started.
	Wall time.Duration
	// ReqPerSec is Requests / Wall.
	ReqPerSec float64
	// P50/P95/P99 are admission-to-answer latency percentiles over
	// the most recent window of answers (bounded; see latencyWindow).
	P50, P95, P99 time.Duration
	// ShedRate is the fraction of arrivals refused at admission:
	// (Shed + RateLimited) / (Requests + Shed + RateLimited).
	ShedRate float64
	// LadderTier is the degradation ladder's current tier;
	// LadderDowns/LadderUps count its steps so far.
	LadderTier             string
	LadderDowns, LadderUps int64
}

// Metrics snapshots the timing view.
func (s *Server) Metrics() Metrics {
	st := s.Stats()
	s.mu.Lock()
	lat := append([]time.Duration(nil), s.latencies...)
	started := s.started
	s.mu.Unlock()
	m := Metrics{Stats: st, Wall: time.Since(started)} //aimlint:allow no-wallclock — Metrics is the wall-clock view, deliberately separate from the deterministic Render
	if m.Wall > 0 {
		m.ReqPerSec = float64(st.Requests) / m.Wall.Seconds()
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		m.P50 = Percentile(lat, 0.50)
		m.P95 = Percentile(lat, 0.95)
		m.P99 = Percentile(lat, 0.99)
	}
	if refused := st.Shed + st.RateLimited; refused > 0 {
		m.ShedRate = float64(refused) / float64(st.Requests+refused)
	}
	tier, downs, ups := s.ladder.snapshot()
	m.LadderTier = tier.String()
	m.LadderDowns, m.LadderUps = downs, ups
	return m
}

// Percentile returns the nearest-rank q-quantile of sorted latencies:
// the ⌈q·n⌉-th smallest of n samples, so p99 of 60 samples is their
// maximum. It is the one percentile the server's metrics, its
// degradation ladder and the load generator's client-side latencies
// all use. An empty slice yields 0.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
