package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aim/internal/serve"
	"aim/internal/sim"
	"aim/internal/xrand"
)

const (
	// openRate is http-analytic-open's offered load in requests per
	// second: a fixed number, never derived from a cost measured during
	// the run, so a faster layer shows up as lower latency. It is about
	// half of what two cores serve of this mix over HTTP when the
	// machine is slow: at 100 req/s such spells took the p99 past
	// 100 ms, the queue near saturation.
	openRate = 50.0
	// serverWorkers is the executor pool of every server: one per core.
	serverWorkers = 2
	// openSetups, spatialSetups and restartSetups are how many times
	// each workload sets its server up; setup_s is the median. The
	// cheaper a set-up, the more of them: one lasts about 0.6 s, 0.15 s
	// and 2.6 s respectively, and a short one moves most with the host.
	openSetups    = 7
	spatialSetups = 9
	restartSetups = 3
)

// setupsBefore is how many of a workload's n set-ups run before its
// measured pass; the rest run after it. Host speed drifts over seconds,
// so set-ups spread over the whole run give a median that does not
// rest on one moment of it.
func setupsBefore(n int) int { return n/2 + 1 }

// runOpen drives http-analytic-open: Poisson arrivals at openRate over
// loopback HTTP, analytic tier, warm plans.
func runOpen(r *run) error {
	r.tailP, r.tailName = 0.99, "latency_p99_ms"
	cfgs, err := r.referencesFor(openMix)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(cfgs))
	for i, c := range cfgs {
		bodies[i] = submitBody(c.req)
	}
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	// Set-up: server and listener up, every plan of the mix compiled
	// through the front door, health check answered.
	var setups []float64
	setUp := func() (*front, error) {
		t0 := now()
		srv, err := serve.New(serve.Options{Workers: serverWorkers})
		if err != nil {
			return nil, err
		}
		f, err := listen(srv)
		if err != nil {
			srv.Close()
			return nil, err
		}
		warm := drain(seqOf(len(cfgs)), func(cfg int) sample {
			s := sample{cfg: cfg}
			post(client, f.url, bodies[cfg], &s)
			return s
		})
		if err := healthy(client, f.url); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
		r.checkSetup(cfgs, warm)
		return f, nil
	}
	f, err := setUp()
	if err != nil {
		return err
	}
	for len(setups) < setupsBefore(openSetups) {
		f.close()
		if f, err = setUp(); err != nil {
			return err
		}
	}
	defer f.close()
	after := countersOf(f.srv.Stats())

	n := max(int(math.Ceil(openRate*r.seconds)), minSamples(r.tailP)*21/20)
	picks, offsets := openSchedule(r.seed, openRate, n)
	plain := openLoop(client, f.url, picks, offsets, bodies, nil)
	if err := r.endToEnd(r.tally(cfgs, plain), plain); err != nil {
		return err
	}
	if r.trace {
		ladder, err := r.prepareLayers(cfgs)
		if err != nil {
			return err
		}
		before := countersOf(f.srv.Stats())
		traced := openLoop(client, f.url, picks, offsets, bodies, func(s *sample) {
			if s.ok() {
				r.traceRequest(s, cfgs[s.cfg], nil)
			}
		})
		lat := r.tally(cfgs, traced)
		r.layerMetrics(cfgs, traced, lat, countersOf(f.srv.Stats()).minus(before), ladder)
	}
	end := countersOf(f.srv.Stats())
	if end.compiles != after.compiles {
		r.violate("bypass: %d compiles after set-up (want 0)", end.compiles-after.compiles)
	}
	r.checkNoSpatial(end)
	// Peak memory as set-up and the passes left it; the set-ups
	// below must not raise it.
	r.set("peak_rss_mb", peakRSSMB())
	for len(setups) < openSetups {
		g, err := setUp()
		if err != nil {
			return err
		}
		g.close()
	}
	r.set("setup_s", median(setups))
	return nil
}

// runSpatial drives spatial-closed: two in-process clients on warm
// plans at the spatial tier, one request in three at the reference
// solve cadence and the rest at the incremental one.
func runSpatial(r *run) error {
	r.tailP, r.tailName = 0.8, "latency_p80_ms"
	cfgs, err := r.referencesFor(spatialMix)
	if err != nil {
		return err
	}
	var setups []float64
	setUp := func() (*serve.Server, error) {
		t0 := now()
		srv, err := serve.New(serve.Options{Workers: serverWorkers})
		if err != nil {
			return nil, err
		}
		// Compile each plan with an analytic request: set-up pays the
		// compiler, not the spatial tier.
		warm := drain([]int{0, 1}, func(cfg int) sample {
			req := cfgs[cfg].req
			req.Fidelity, req.SpatialSkipMV, req.SpatialAdaptive = sim.AnalyticToggles, 0, false
			return submit(srv, req, cfg)
		})
		setups = append(setups, now().Sub(t0).Seconds())
		for _, s := range warm {
			if !s.ok() {
				srv.Close()
				return nil, fmt.Errorf("set-up request failed: %v", s.err)
			}
		}
		return srv, nil
	}
	srv, err := setUp()
	if err != nil {
		return err
	}
	for len(setups) < setupsBefore(spatialSetups) {
		srv.Close()
		if srv, err = setUp(); err != nil {
			return err
		}
	}
	defer srv.Close()
	after := countersOf(srv.Stats())

	length, minN := time.Duration(r.seconds*float64(time.Second)), minSamples(r.tailP)
	seq := closedSequence(r.seed, "spatial", 4096, len(spatialSlots))
	for i, slot := range seq {
		seq[i] = spatialSlots[slot]
	}
	plain := closedLoop(seq, window(length, minN), func(cfg int) sample { return submit(srv, cfgs[cfg].req, cfg) })
	if err := r.endToEnd(r.tally(cfgs, plain), plain); err != nil {
		return err
	}
	if r.trace {
		ladder, err := r.prepareLayers(cfgs)
		if err != nil {
			return err
		}
		before := countersOf(srv.Stats())
		traced := closedLoop(seq, window(length, minN), func(cfg int) sample {
			s := submit(srv, cfgs[cfg].req, cfg)
			if s.ok() {
				r.traceRequest(&s, cfgs[cfg], nil)
			}
			return s
		})
		lat := r.tally(cfgs, traced)
		r.layerMetrics(cfgs, traced, lat, countersOf(srv.Stats()).minus(before), ladder)
	}
	if end := countersOf(srv.Stats()); end.compiles != after.compiles {
		r.violate("bypass: %d compiles after set-up (want 0)", end.compiles-after.compiles)
	}
	// Peak memory as set-up and the passes left it; the set-ups
	// below must not raise it.
	r.set("peak_rss_mb", peakRSSMB())
	for len(setups) < spatialSetups {
		s, err := setUp()
		if err != nil {
			return err
		}
		s.Close()
	}
	r.set("setup_s", median(setups))
	return nil
}

// runCompileRestart drives compile-restart. Set-up is a plan store's
// first pass: a server on an empty plan directory compiles every key
// and writes it through (Cache.Plan calls Store.Put on the request
// path). Each measured cycle then starts a new server on a filled
// directory and serves the same keys, so every plan is read from disk
// and decoded, never compiled. The last set-up runs after the measured
// pass (see setupsBefore).
func runCompileRestart(r *run) error {
	r.tailP, r.tailName = 0.9, "restart_latency_p90_ms"
	cfgs, err := r.referencesFor(compileKeys(r.seed))
	if err != nil {
		return err
	}
	// Each set-up fills its own plan directory; the restarts cycle
	// over those filled before the measured pass.
	var dirs []string
	var setups []float64
	setUp := func() error {
		dir := filepath.Join(r.work, fmt.Sprintf("store-%d", len(dirs)))
		t0 := now()
		srv, err := serve.New(serve.Options{Workers: serverWorkers, PlanCacheDir: dir})
		if err != nil {
			return err
		}
		fill := drain(seqOf(len(cfgs)), func(cfg int) sample { return submit(srv, cfgs[cfg].req, cfg) })
		st := countersOf(srv.Stats())
		srv.Close()
		setups = append(setups, now().Sub(t0).Seconds())
		dirs = append(dirs, dir)
		r.checkSetup(cfgs, fill)
		if st.compiles != int64(len(cfgs)) || st.diskHits != 0 {
			r.violate("bypass: set-up made %d compiles and %d disk loads (want %d and 0)", st.compiles, st.diskHits, len(cfgs))
		}
		r.checkNoSpatial(st)
		return nil
	}
	for len(setups) < setupsBefore(restartSetups) {
		if err := setUp(); err != nil {
			return err
		}
	}
	if err := r.restartPasses(cfgs, dirs); err != nil {
		return err
	}
	// Peak memory as set-up and the passes left it; the set-ups
	// below must not raise it.
	r.set("peak_rss_mb", peakRSSMB())
	for len(setups) < restartSetups {
		if err := setUp(); err != nil {
			return err
		}
	}
	r.set("setup_s", median(setups))
	return nil
}

// restartPasses runs compile-restart's measured pass over the plan
// directories dirs, and its traced pass when tracing.
func (r *run) restartPasses(cfgs []*config, dirs []string) error {
	plain, cnt, err := r.restarts(cfgs, dirs, false)
	if err != nil {
		return err
	}
	if err := r.endToEnd(r.tally(cfgs, plain), plain); err != nil {
		return err
	}
	r.checkNoSpatial(cnt)
	if !r.trace {
		return nil
	}
	ladder, err := r.prepareLayers(cfgs)
	if err != nil {
		return err
	}
	traced, cnt, err := r.restarts(cfgs, dirs, true)
	if err != nil {
		return err
	}
	r.layerMetrics(cfgs, traced, r.tally(cfgs, traced), cnt, ladder)
	r.checkNoSpatial(cnt)
	return nil
}

// restarts runs restart cycles until the window stops them: each cycle
// starts a server on the next filled directory, lets the clients serve
// every key once in an order drawn for that cycle, checks that every
// plan came from disk and none was compiled, and closes the server.
func (r *run) restarts(cfgs []*config, dirs []string, traced bool) (pass, counters, error) {
	stop := window(time.Duration(r.seconds*float64(time.Second)), minSamples(r.tailP))
	var total counters
	p := pass{start: now()}
	for c := 0; c == 0 || !stop(int64(countOK(p.samples))); c++ {
		srv, err := serve.New(serve.Options{Workers: serverWorkers, PlanCacheDir: dirs[c%len(dirs)]})
		if err != nil {
			return pass{}, counters{}, err
		}
		order := xrand.NewNamed(r.seed, fmt.Sprintf("e2ebench/cycle/%d", c)).Perm(len(cfgs))
		got := drain(order, func(cfg int) sample {
			s := submit(srv, cfgs[cfg].req, cfg)
			if traced && s.ok() {
				r.traceRequest(&s, cfgs[cfg], []part{{"planstore.get", cfgs[cfg].cost.get}})
			}
			return s
		})
		st := countersOf(srv.Stats())
		srv.Close()
		if st.compiles != 0 || st.diskHits != int64(len(cfgs)) {
			r.violate("bypass: restart made %d compiles and %d disk loads (want 0 and %d)", st.compiles, st.diskHits, len(cfgs))
		}
		total = total.plus(st)
		p.samples = append(p.samples, got...)
	}
	p.end = now()
	return p, total, nil
}

// seqOf is 0..n-1.
func seqOf(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func countOK(ss []sample) int {
	n := 0
	for i := range ss {
		if ss[i].ok() {
			n++
		}
	}
	return n
}

// counters are the server counters a pass is checked and measured by.
type counters struct {
	compiles, hits, diskHits, batches, refused int64
	batched                                    float64
	solves, skips, vcycles, saturated          int64
}

func countersOf(s serve.Stats) counters {
	return counters{
		compiles: s.Compiles, hits: s.PlanHits, diskHits: s.DiskHits,
		batches: s.Batches, refused: s.Shed + s.RateLimited, batched: s.MeanBatch * float64(s.Batches),
		solves: s.SpatialSolves, skips: s.SpatialSkips, vcycles: s.SpatialVCycles, saturated: s.SpatialSaturated,
	}
}

func (a counters) plus(b counters) counters {
	return counters{
		compiles: a.compiles + b.compiles, hits: a.hits + b.hits,
		diskHits: a.diskHits + b.diskHits, batches: a.batches + b.batches, refused: a.refused + b.refused,
		batched: a.batched + b.batched, solves: a.solves + b.solves, skips: a.skips + b.skips,
		vcycles: a.vcycles + b.vcycles, saturated: a.saturated + b.saturated,
	}
}

func (a counters) minus(b counters) counters {
	return a.plus(counters{
		compiles: -b.compiles, hits: -b.hits, diskHits: -b.diskHits,
		batches: -b.batches, refused: -b.refused, batched: -b.batched, solves: -b.solves,
		skips: -b.skips, vcycles: -b.vcycles, saturated: -b.saturated,
	})
}

// checkNoSpatial flags spatial work on a workload that bypasses the
// spatial tier.
func (r *run) checkNoSpatial(c counters) {
	if c.solves+c.skips != 0 {
		r.violate("bypass: %d spatial solves and %d skips on an analytic workload", c.solves, c.skips)
	}
}

// checkSetup checks set-up answers like measured ones, without counting
// them as attempts.
func (r *run) checkSetup(cfgs []*config, ss []sample) {
	for i := range ss {
		s := &ss[i]
		switch {
		case !s.ok():
			r.violate("set-up request %s failed: refused=%v err=%v", planID(cfgs[s.cfg].req), s.refused, s.err)
		case !r.same(cfgs[s.cfg], s):
			r.violate("set-up answer for %s differs from its one-shot reference", planID(cfgs[s.cfg].req))
		}
	}
}

// same compares an answer with its configuration's reference.
func (r *run) same(c *config, s *sample) bool {
	if s.http {
		return sameWire(s.wire, c)
	}
	return sameReport(s.net, s.report, c)
}

// tally counts a measured pass into attempted and failed, checks every
// answer against its one-shot reference and for saturated solves, and
// returns the answered requests' latencies in milliseconds. Refusals,
// failures and wrong answers all count as failed; a wrong answer or a
// saturated solve also fails the run.
func (r *run) tally(cfgs []*config, p pass) []float64 {
	var lat []float64
	wrong, saturated := 0, int64(0)
	var firstErr error
	for i := range p.samples {
		s := &p.samples[i]
		r.attempted++
		if !s.ok() {
			r.failed++
			if firstErr == nil && s.err != nil {
				firstErr = s.err
			}
			continue
		}
		c := cfgs[s.cfg]
		if !r.same(c, s) {
			r.failed++
			wrong++
			continue
		}
		saturated += c.want.Baseline.Result.SpatialSolve.Saturated + c.want.AIM.Result.SpatialSolve.Saturated
		lat = append(lat, ms(s.done.Sub(s.issued)))
	}
	if wrong > 0 {
		r.violate("%d answers differ from their one-shot reference", wrong)
	}
	if saturated > 0 {
		r.violate("%d saturated mesh solves", saturated)
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: first failed request: %v\n", firstErr)
	}
	return lat
}

// endToEnd sets the latency and throughput metrics from an untraced
// pass.
func (r *run) endToEnd(lat []float64, p pass) error {
	if need := minSamples(r.tailP); len(lat) < need {
		return fmt.Errorf("%d answers in the pass; the %s needs %d", len(lat), r.tailName, need)
	}
	s := ascending(lat)
	r.set("latency_p50_ms", nearestRank(s, 0.5))
	r.set("latency_tail_ms", nearestRank(s, r.tailP))
	r.set("throughput_rps", float64(len(lat))/p.end.Sub(p.start).Seconds())
	r.set("error_rate", float64(r.failed)/float64(r.attempted))
	fmt.Fprintf(os.Stderr, "e2ebench: %d answers; %s rests on the %d beyond it\n", len(lat), r.tailName, beyond(len(lat), r.tailP))
	return nil
}

// traceRequest records one answered request's span tree. The request,
// transport and lag spans are measured around the public calls; the
// serve span is the latency the server reports; inside it the layers'
// calls are laid out at the isolated cost this configuration's calls
// took (miss, the calls a plan-cache miss makes, then execute, and
// inside execute each stage's sim.Run split into its analytic,
// packed-Rtog and mesh-estimate parts). Whatever the server spent
// beyond those costs is the serve span's self time: admission, batching
// and queueing. The sum of the laid costs, before they are scaled to
// fit, is kept in s.modelled.
func (r *run) traceRequest(s *sample, c *config, miss []part) {
	tr := r.tr
	id := r.reqIDs.Add(1)
	issued, done := tr.at(s.issued), tr.at(s.done)
	parent := tr.add(-1, id, "request", issued, done)
	from := issued
	if s.http {
		sent := tr.at(s.sent)
		tr.add(parent, id, "loadgen.lag", issued, sent)
		parent, from = tr.add(parent, id, "transport", sent, done), sent
	}
	svFrom := max(done-s.server, from)
	sv := tr.add(parent, id, "serve", svFrom, done)
	var parts []part
	if !s.cached {
		parts = append(parts, miss...)
	}
	parts = append(parts, part{"core.execute", c.cost.execute()})
	for _, p := range parts {
		s.modelled += p.dur
	}
	laid := tr.nest(sv, id, svFrom, done, parts)
	ex := laid[len(laid)-1]
	tier := c.cost.tier
	stages := tr.nest(ex.ID, id, ex.Start, ex.End, []part{
		{"sim.run.baseline", c.cost.stages[0].run[tier]}, {"sim.run.aim", c.cost.stages[1].run[tier]},
	})
	if tier == sim.AnalyticToggles {
		return
	}
	for k, st := range stages {
		run := c.cost.stages[k].run
		tr.nest(st.ID, id, st.Start, st.End, []part{{"pim", run[sim.PackedToggles] - run[sim.AnalyticToggles]}, {"irdrop", run[tier] - run[sim.PackedToggles]}})
	}
}

// prepareLayers measures what the traced pass's span trees need: the
// isolated cost of every configuration's calls, and the tier ladder on
// the configuration it returns.
func (r *run) prepareLayers(cfgs []*config) (*config, error) {
	ladder := ladderConfig(cfgs)
	err := measureCosts(r.tr, cfgs, ladder, filepath.Join(r.work, "probe"))
	release(cfgs)
	return ladder, err
}

// referencesFor computes the workload's references; an untraced run
// needs no plan after that.
func (r *run) referencesFor(reqs []serve.Request) ([]*config, error) {
	cfgs, err := references(r.tr, reqs)
	if err == nil && !r.trace {
		release(cfgs)
	}
	return cfgs, err
}

// layers are the span-tree layers self time is reported for, in order;
// "unattributed" is the self time of the request spans themselves.
var layers = []string{"loadgen", "transport", "serve", "compiler", "planstore", "core", "sim", "pim", "irdrop", "unattributed"}

// layerSelf aggregates the traced requests' span trees: the mean self
// time per layer (ms) over the requests whose latency lies in the
// middle tenth (the requests the p50 describes), and the share of all
// request time that no layer accounts for.
func layerSelf(spans []span) (band map[string]float64, unattributedPct float64) {
	self := selfTimes(spans)
	type request struct {
		total time.Duration
		by    map[string]time.Duration
	}
	byID := map[int64]*request{}
	var all, unattributed time.Duration
	for i, s := range spans {
		if s.Req < 0 {
			continue
		}
		q := byID[s.Req]
		if q == nil {
			q = &request{by: map[string]time.Duration{}}
			byID[s.Req] = q
		}
		l := s.layer()
		if s.Parent < 0 {
			q.total = s.End - s.Start
			all += q.total
			unattributed += self[i]
			l = "unattributed"
		}
		q.by[l] += self[i]
	}
	list := make([]*request, 0, len(byID))
	for _, q := range byID {
		list = append(list, q)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].total < list[j].total })
	band = map[string]float64{}
	if len(list) == 0 || all == 0 {
		return band, 0
	}
	lo, hi := rank(len(list), 0.45)-1, rank(len(list), 0.55)-1
	for _, q := range list[lo : hi+1] {
		for _, l := range layers {
			band[l] += ms(q.by[l]) / float64(hi-lo+1)
		}
	}
	return band, 100 * float64(unattributed) / float64(all)
}

// reconcileTolerance is how far, in percent of the untraced p50, the
// traced requests' attributed time may lie from it before the run
// warns that the layer split does not describe the requests.
const reconcileTolerance = 25.0

// layerMetrics sets the per-layer metrics from a traced pass, with the
// tier ladder measured on ladder.
func (r *run) layerMetrics(cfgs []*config, p pass, lat []float64, cnt counters, ladder *config) {
	var transport, lag, wait, attributed []float64
	var cycles, solves, skips, vcycles float64
	var host time.Duration
	refused, n := 0, 0
	for i := range p.samples {
		s := &p.samples[i]
		if s.refused {
			refused++
		}
		if !s.ok() {
			continue
		}
		c := cfgs[s.cfg]
		n++
		if s.http {
			transport = append(transport, ms(transportOverhead(s)))
			lag = append(lag, ms(s.sent.Sub(s.issued)))
		}
		// The scheduling wait is what the server spent beyond the
		// isolated costs of the calls it made for the request:
		// admission, batching and queueing.
		wait = append(wait, ms(max(0, s.server-s.modelled)))
		attributed = append(attributed, ms(attributedTime(s)))
		cycles += float64(c.want.Baseline.Result.Cycles + c.want.AIM.Result.Cycles)
		host += c.cost.execute()
		st := c.want.Baseline.Result.SpatialSolve
		st.Add(c.want.AIM.Result.SpatialSolve)
		solves += float64(st.Solves)
		skips += float64(st.Skips)
		vcycles += float64(st.VCycles)
	}
	q := func(x []float64, p float64) float64 {
		if len(x) == 0 {
			return 0
		}
		return quantile(x, p)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("transport.overhead_ms_p50", q(transport, 0.5))
	r.set("transport.overhead_ms_p99", q(transport, 0.99))
	r.set("loadgen.lag_ms_p99", q(lag, 0.99))
	r.set("admission.refused", float64(refused))
	r.set("admission.refused_rate", ratio(float64(refused), float64(len(p.samples))))
	r.set("scheduling.batches", float64(cnt.batches))
	r.set("scheduling.mean_batch", ratio(cnt.batched, float64(cnt.batches)))
	r.set("scheduling.wait_ms_p50", q(wait, 0.5))
	r.set("scheduling.wait_ms_p99", q(wait, 0.99))
	r.set("cache.compiles", float64(cnt.compiles))
	r.set("cache.hit_ratio", ratio(float64(cnt.hits), float64(cnt.batches)))
	r.set("cache.disk_hits", float64(cnt.diskHits))

	var cb, ca, enc, put, dec, get, size []float64
	for _, c := range cfgs {
		cb = append(cb, ms(c.compile[0]))
		ca = append(ca, ms(c.compile[1]))
		enc = append(enc, ms(c.cost.encode))
		put = append(put, ms(c.cost.put))
		dec = append(dec, ms(c.cost.decode))
		get = append(get, ms(c.cost.get))
		size = append(size, float64(c.cost.bytes))
	}
	r.set("compiler.baseline_ms", median(cb))
	r.set("compiler.aim_ms", median(ca))
	r.set("planstore.encode_ms", median(enc))
	r.set("planstore.put_ms", median(put))
	r.set("planstore.decode_ms", median(dec))
	r.set("planstore.get_ms", median(get))
	r.set("planstore.plan_bytes", median(size))

	r.set("core.execute_ms.analytic", ms(ladder.cost.exec[sim.AnalyticToggles]))
	r.set("core.execute_ms.packed", ms(ladder.cost.exec[sim.PackedToggles]))
	r.set("core.execute_ms.spatial", ms(ladder.cost.exec[sim.SpatialPDN]))
	r.set("sim.cycles_per_req", ratio(cycles, float64(n)))
	r.set("sim.cycles_per_host_s", ratio(cycles, host.Seconds()))
	aim := ladder.cost.stages[1]
	r.set("pim.packed_rtog_ms", ms(aim.run[sim.PackedToggles]-aim.run[sim.AnalyticToggles]))
	estimate := aim.run[sim.SpatialPDN] - aim.run[sim.PackedToggles]
	r.set("irdrop.spatial_estimate_ms", ms(estimate))
	r.set("irdrop.solves_per_req", ratio(solves, float64(n)))
	r.set("irdrop.skips_per_req", ratio(skips, float64(n)))
	r.set("irdrop.skip_ratio", ratio(skips, solves+skips))
	r.set("pdn.vcycles_per_solve", ratio(vcycles, solves))
	r.set("pdn.us_per_vcycle", ratio(float64(estimate)/float64(time.Microsecond), float64(aim.solve.VCycles)))
	r.set("pdn.saturated", float64(cnt.saturated+aim.solve.Saturated))
	if aim.solve.Saturated > 0 {
		r.violate("%d saturated mesh solves in the tier ladder", aim.solve.Saturated)
	}
	if cnt.saturated > 0 {
		r.violate("%d saturated mesh solves on the server", cnt.saturated)
	}

	plainP50 := r.values["latency_p50_ms"]
	band, unattributed := layerSelf(r.tr.spans)
	for _, l := range layers {
		r.set("self_ms."+l, band[l])
	}
	r.set("trace.overhead_pct", 100*(q(lat, 0.5)-plainP50)/plainP50)
	r.set("trace.unattributed_pct", unattributed)
	reconcile := 100 * (q(attributed, 0.5) - plainP50) / plainP50
	r.set("trace.reconcile_pct", reconcile)
	if math.Abs(reconcile) > reconcileTolerance {
		r.warn("trace.reconcile_pct %.1f %% lies outside ±%.0f %%: the layer split does not reconcile with latency_p50_ms", reconcile, reconcileTolerance)
	}
	r.set("error_rate", float64(r.failed)/float64(r.attempted))
}

// attributedTime is a traced request's latency with the unscaled
// isolated costs in place of the server's latency wherever they exceed
// it: the time measured outside the server plus the larger of the two.
// A layer model that overstates its costs shows as excess over the
// measured latency.
func attributedTime(s *sample) time.Duration {
	return s.done.Sub(s.issued) - s.server + max(s.server, s.modelled)
}

// transportOverhead is what HTTP added to a request: the client's
// round trip minus the latency the server reports for it.
func transportOverhead(s *sample) time.Duration { return s.done.Sub(s.sent) - s.server }
