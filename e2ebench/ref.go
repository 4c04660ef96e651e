package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/irdrop"
	"aim/internal/model"
	"aim/internal/planstore"
	"aim/internal/runner"
	"aim/internal/serve"
	"aim/internal/sim"
)

// refWorkers is how many goroutines compute references and set-up
// work: one per CPU of the two-core machines the benchmark is sized
// for, and the same parallelism the server's two executors have.
const refWorkers = 2

// config is one distinct request the workload sends, with its one-shot
// reference: core.Pipeline Compile then Execute, computed outside any
// timed region. Every served answer must equal it.
type config struct {
	req  serve.Request
	plan *core.Plan
	want core.Report
	net  string // want's network, kept when release drops the plan
	// compile holds the CompileStage times of the reference compile
	// (baseline, AIM stage); configs sharing a plan share them.
	compile [2]time.Duration
	// cost is the isolated cost of each layer's call, measured in
	// traced runs only.
	cost cost
}

// cost is what a configuration's calls take in isolation, each the
// median of repeated timed calls made one at a time. Times indexed by
// sim.Fidelity are measured for every tier up to the configuration's
// own; the tier-ladder configuration (see ladderConfig) measures all
// three.
type cost struct {
	// tier is the configuration's own fidelity tier.
	tier sim.Fidelity
	// exec times Pipeline.Execute; only the ladder configuration
	// measures a tier other than its own.
	exec [3]time.Duration
	// stages are the two executed stages (baseline, AIM).
	stages [2]stageCost
	// encode, put, decode and get time the plan store calls on this
	// configuration's plan; bytes is its encoded size.
	encode, put, decode, get time.Duration
	bytes                    int
}

// stageCost times sim.Run for one stage at each tier; solve is the
// spatial-tier run's mesh-solve counts.
type stageCost struct {
	run   [3]time.Duration
	solve irdrop.SolveStats
}

// execute is the configuration's timed Execute at its own tier.
func (c cost) execute() time.Duration { return c.exec[c.tier] }

// pipelineFor builds the pipeline the server builds for r, applying
// the same defaults (β 50, 8 bits, seed 1, default δ, serial waves).
func pipelineFor(r serve.Request) (*core.Pipeline, error) {
	p := core.NewPipeline(r.Mode)
	if r.Seed != 0 {
		p.Seed = r.Seed
	}
	if r.Beta > 0 {
		p.Beta = r.Beta
	}
	if r.Bits != 0 {
		p.Bits = r.Bits
	}
	d, err := core.ResolveWDSDelta(r.Delta)
	if err != nil {
		return nil, err
	}
	p.WDSDelta = d
	p.Parallel = 1
	p.Fidelity = r.Fidelity
	p.SpatialWindow = r.SpatialWindow
	p.SpatialSkipMV = r.SpatialSkipMV
	p.SpatialAdaptive = r.SpatialAdaptive
	return p, nil
}

// planID names a request's plan: the inputs the compiler consumes.
func planID(r serve.Request) string {
	return fmt.Sprintf("%s|%v|%d|%d|%d", r.Network, r.Mode, r.Bits, r.Delta, r.Seed)
}

// references compiles each distinct plan once and executes every
// request on it, refWorkers at a time. Compile stages are timed and
// traced as compiler spans.
func references(tr *tracer, reqs []serve.Request) ([]*config, error) {
	cfgs := make([]*config, len(reqs))
	var plans []int // index of the first config of each distinct plan
	first := make(map[string]int)
	owner := make([]int, len(reqs))
	for i, r := range reqs {
		cfgs[i] = &config{req: r}
		id := planID(r)
		if j, ok := first[id]; ok {
			owner[i] = j
			continue
		}
		first[id] = i
		owner[i] = i
		plans = append(plans, i)
	}
	ctx := context.Background()
	err := runner.Do(ctx, len(plans), refWorkers, func(k int) error {
		c := cfgs[plans[k]]
		p, err := pipelineFor(c.req)
		if err != nil {
			return err
		}
		net, err := model.ByName(c.req.Network, serve.ZooSeed)
		if err != nil {
			return err
		}
		plan := &core.Plan{Net: net}
		c.compile[0] = tr.around(-1, "compiler.CompileStage.baseline", func() { plan.Baseline = p.CompileStage(net, core.StageBaseline) })
		c.compile[1] = tr.around(-1, "compiler.CompileStage.aim", func() { plan.AIM = p.CompileStage(net, core.StageBooster) })
		c.plan = plan
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference compile: %w", err)
	}
	for i, c := range cfgs {
		c.plan, c.compile = cfgs[owner[i]].plan, cfgs[owner[i]].compile
	}
	err = runner.Do(ctx, len(cfgs), refWorkers, func(i int) error {
		p, err := pipelineFor(cfgs[i].req)
		if err != nil {
			return err
		}
		cfgs[i].want = p.Execute(cfgs[i].plan)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference execute: %w", err)
	}
	for _, c := range cfgs {
		c.net = c.want.Net.Name
	}
	return cfgs, nil
}

// release drops the configurations' plans once nothing measures them
// any more, so a run holds only the plans its server holds.
func release(cfgs []*config) {
	for _, c := range cfgs {
		c.plan = nil
		c.want.Net, c.want.Baseline.Compiled, c.want.AIM.Compiled = nil, nil, nil
	}
}

// reps is how many times an isolated call is repeated for its median:
// more for the cheap analytic tier, once for the spatial tier, whose
// single call already runs hundreds of mesh solves.
func reps(f sim.Fidelity) int {
	switch f {
	case sim.AnalyticToggles:
		return 5
	case sim.PackedToggles:
		return 3
	default:
		return 1
	}
}

// timeRun is the median time of sim.Run on one stage of a plan at the
// options' tier, and the run's result.
func timeRun(tr *tracer, c *compiler.Compiled, p *core.Pipeline, opt sim.Options) (time.Duration, sim.Result) {
	d := make([]time.Duration, reps(opt.Fidelity))
	var res sim.Result
	for i := range d {
		d[i] = tr.around(-1, "sim.Run."+opt.Fidelity.String(), func() { res = sim.Run(c, p.Chip, opt) })
	}
	return medianDur(d), res
}

// ladderConfig is the configuration the tier ladder is measured on: the
// first mobilenetv2 one (the cheapest network every workload serves) at
// the reference spatial cadence. The pim and irdrop figures are
// differences between its tiers measured at the sim.Run boundary, so
// they approximate the cost of the packed Rtog engine and of the mesh
// estimate.
func ladderConfig(cfgs []*config) *config {
	for _, c := range cfgs {
		r := c.req
		if r.Network == "mobilenetv2" && r.SpatialWindow == 0 && r.SpatialSkipMV == 0 && !r.SpatialAdaptive {
			return c
		}
	}
	return cfgs[0]
}

// measureCosts times each configuration's calls in isolation, one call
// at a time: Pipeline.Execute at its own tier, each stage's sim.Run at
// every tier up to its own (every tier, and Execute too, on ladder),
// and the plan store round trip of its plan through a probe store under
// dir. Like the server's executors, the calls share one warm simulator
// state, filled by an untimed Execute of each configuration first:
// without it every spatial wave rebuilds its mesh hierarchy, and the
// isolated costs would overstate what a served request pays.
func measureCosts(tr *tracer, cfgs []*config, ladder *config, dir string) error {
	warm := sim.NewWarmState()
	for _, c := range cfgs {
		p, err := pipelineFor(c.req)
		if err != nil {
			return err
		}
		p.Warm = warm
		c.cost.tier = c.req.Fidelity
		top := c.cost.tier
		if c == ladder {
			top = sim.SpatialPDN
		}
		p.Fidelity = top
		p.Execute(c.plan)
		p.Fidelity = c.cost.tier
		for s, st := range []struct {
			stage core.Stage
			comp  *compiler.Compiled
		}{{core.StageBaseline, c.plan.Baseline}, {core.StageBooster, c.plan.AIM}} {
			opt := p.SimOptions(st.stage, c.plan.Net.Transformer)
			sc := &c.cost.stages[s]
			for f := sim.AnalyticToggles; f <= top; f++ {
				opt.Fidelity = f
				var res sim.Result
				sc.run[f], res = timeRun(tr, st.comp, p, opt)
				sc.solve = res.SpatialSolve
			}
		}
		for f := sim.AnalyticToggles; f <= top; f++ {
			if f != c.cost.tier && c != ladder {
				continue
			}
			p.Fidelity = f
			d := make([]time.Duration, reps(f))
			for i := range d {
				d[i] = tr.around(-1, "core.Execute."+f.String(), func() { p.Execute(c.plan) })
			}
			c.cost.exec[f] = medianDur(d)
		}
	}
	return measureStore(tr, cfgs, dir)
}

// measureStore times Encode, Store.Put, Decode and a cold Store.Get
// (a second store over the same directory, so the plan is read from
// disk and decoded) for each configuration's plan.
func measureStore(tr *tracer, cfgs []*config, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	writer, err := planstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	reader, err := planstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	for _, c := range cfgs {
		k := storeKey(c.req)
		var data []byte
		var encErr, putErr, decErr error
		c.cost.encode = tr.around(-1, "planstore.Encode", func() { data, encErr = planstore.Encode(k, c.plan) })
		c.cost.put = tr.around(-1, "planstore.Put", func() { putErr = writer.Put(k, c.plan) })
		c.cost.decode = tr.around(-1, "planstore.Decode", func() { _, decErr = planstore.Decode(k, data) })
		var got bool
		c.cost.get = tr.around(-1, "planstore.Get", func() { _, got = reader.Get(k) })
		c.cost.bytes = len(data)
		for _, err := range []error{encErr, putErr, decErr} {
			if err != nil {
				return fmt.Errorf("plan store probe: %w", err)
			}
		}
		if !got {
			return fmt.Errorf("plan store probe: %s not found after Put", planID(c.req))
		}
	}
	return nil
}

// storeKey is the plan store key the server derives for r.
func storeKey(r serve.Request) planstore.Key {
	p, _ := pipelineFor(r) // r was validated when its reference was built
	return planstore.Key{Network: r.Network, Mode: r.Mode.String(), Bits: p.Bits, Delta: p.WDSDelta, Seed: p.Seed}
}

// sameReport reports whether a served report equals the one-shot
// reference in every simulated statistic of both stages.
func sameReport(net string, got core.Report, c *config) bool {
	want := c.want
	return net == c.net && got.Mode == want.Mode &&
		sameStage(got.Baseline, want.Baseline) && sameStage(got.AIM, want.AIM)
}

func sameStage(a, b core.StageResult) bool {
	return a.Stage == b.Stage && a.Quality == b.Quality &&
		reflect.DeepEqual(a.Result, b.Result) && reflect.DeepEqual(a.HR, b.HR)
}

// wireAnswer is the JSON body of a POST /v1/submit answer.
type wireAnswer struct {
	Network          string  `json:"network"`
	Mode             string  `json:"mode"`
	Fidelity         string  `json:"fidelity"`
	PlanCached       bool    `json:"plan_cached"`
	LatencyMS        float64 `json:"latency_ms"`
	HRBaseline       float64 `json:"hr_baseline"`
	HROptimized      float64 `json:"hr_optimized"`
	MitigationPct    float64 `json:"mitigation_pct"`
	PowerMW          float64 `json:"power_mw"`
	TOPS             float64 `json:"tops"`
	TokensPerSec     float64 `json:"tokens_per_sec"`
	EnergyPerTokenMJ float64 `json:"energy_per_token_mj"`
	Failures         int     `json:"failures"`
}

// sameWire reports whether an HTTP answer carries exactly the
// reference's statistics. The timing fields are not compared.
func sameWire(got wireAnswer, c *config) bool {
	aim := c.want.AIM.Result
	want := wireAnswer{
		Network:          c.req.Network,
		Mode:             c.req.Mode.String(),
		Fidelity:         c.req.Fidelity.String(),
		HRBaseline:       c.want.Baseline.HR.Average,
		HROptimized:      c.want.AIM.HR.Average,
		MitigationPct:    100 * c.want.Mitigation(),
		PowerMW:          aim.AvgMacroPowerMW,
		TOPS:             aim.TOPS,
		TokensPerSec:     serve.TokensPerSec(aim.TOPS),
		EnergyPerTokenMJ: serve.EnergyPerTokenMJ(aim.AvgMacroPowerMW, aim.TOPS),
		Failures:         aim.Failures,
	}
	got.PlanCached, got.LatencyMS = false, 0
	return got == want
}
