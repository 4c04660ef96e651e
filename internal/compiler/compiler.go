// Package compiler is the software stack that prepares a workload for
// the AIM-enabled PIM chip (paper Fig. 6a): it quantizes weights (with
// the LHR regularizer), applies the WDS pass with per-operator δ
// configuration (Algorithm 1), segments operators into macro-sized
// tasks, schedules them into waves that fit the chip, and invokes the
// selected task-mapping strategy.
package compiler

import (
	"fmt"

	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// RuntimeOperandHR is the typical Hamming rate of runtime-generated
// attention operands (QKT/SV): unlike weights it cannot be optimized
// offline, and profiling puts it a little above the 0.5 of symmetric
// data because attention scores and values skew positive-small after
// softmax scaling.
const RuntimeOperandHR = 0.55

// Strategy selects the task mapper.
type Strategy int

const (
	// SequentialMap fills macros in order (baseline).
	SequentialMap Strategy = iota
	// RandomMap shuffles tasks over macros.
	RandomMap
	// ZigzagMap walks the group grid boustrophedon.
	ZigzagMap
	// HRAwareMap is the paper's Algorithm 3 simulated annealing.
	HRAwareMap
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case SequentialMap:
		return "sequential"
	case RandomMap:
		return "random"
	case ZigzagMap:
		return "zigzag"
	case HRAwareMap:
		return "hr-aware"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Options configures a compilation.
type Options struct {
	// QuantConfig is the offline quantization pass: width, LHR, and
	// the default and per-operator WDS δ.
	model.QuantConfig
	Strategy Strategy
	Mode     vf.Mode
	Seed     int64
}

// DefaultOptions is the full AIM software pipeline: LHR + WDS(δ=8) +
// HR-aware mapping.
func DefaultOptions() Options {
	return Options{QuantConfig: model.WDSConfig(8), Strategy: HRAwareMap, Mode: vf.LowPower, Seed: 1}
}

// BaselineOptions is the no-AIM software path: plain quantization and
// sequential mapping.
func BaselineOptions() Options {
	return Options{QuantConfig: model.BaselineConfig(), Strategy: SequentialMap, Mode: vf.LowPower, Seed: 1}
}

// LayerPlan is one operator after quantization and segmentation.
type LayerPlan struct {
	Layer *model.Layer
	// Quant holds the deployed codes. It is nil for input-determined
	// ops and in every plan decoded from the plan store: execution
	// draws its codes from HR, so only the experiments read Quant, and
	// only on fresh compiles.
	Quant *quant.Quantized
	// HR is the deployed Hamming rate (1.0 sentinel for
	// input-determined operators: worst case must be assumed).
	HR float64
	// Delta is the WDS δ applied (0 if none).
	Delta int
	// Segments is the number of macro tasks the operator occupies in
	// its wave.
	Segments int
	// WaveRounds is how many full passes of its segments the operator
	// needs when it exceeds one wave's capacity share.
	WaveRounds int
}

// Wave is a set of operators co-resident on the chip.
type Wave struct {
	Plans []*LayerPlan
	Tasks []mapping.Task
	// Map is the chosen task-to-macro assignment.
	Map *mapping.Mapping
	// Rounds is the wave's execution length multiplier: the largest
	// WaveRounds among its operators.
	Rounds int
}

// Compiled is the full compilation artifact.
type Compiled struct {
	Net     *model.Network
	Options Options
	Plans   []*LayerPlan
	Waves   []*Wave
	// Stats carries the HR summary and, in MeanDrift, the code drift
	// that feeds the accuracy surrogate.
	Stats model.HRStats
}

// Compile runs the offline pipeline on a network.
func Compile(net *model.Network, cfg pim.Config, opt Options) *Compiled {
	if opt.Bits == 0 {
		opt.Bits = 8
	}
	c := &Compiled{Net: net, Options: opt}
	lqs := model.QuantizeNetwork(net, opt.QuantConfig)
	next := 0
	for _, l := range net.Layers {
		plan := &LayerPlan{Layer: l, HR: 1.0}
		if !l.Kind.InputDetermined() {
			lq := lqs[next]
			next++
			if !quant.IsPow2(lq.Delta) {
				panic(fmt.Sprintf("compiler: δ=%d for %s is not a power of two", lq.Delta, l.Name))
			}
			plan.Quant, plan.HR, plan.Delta = lq.Q, lq.HR, lq.Delta
		}
		c.Plans = append(c.Plans, plan)
	}
	c.Stats = model.Stats(lqs)
	c.Waves = schedule(c.Plans, cfg)
	mapper := newMapper(cfg, opt)
	for _, w := range c.Waves {
		w.Map = mapper(w.Tasks)
		if err := w.Map.Validate(len(w.Tasks)); err != nil {
			panic(err)
		}
	}
	return c
}

// schedule segments operators into macro tasks and packs them into
// waves. Each operator asks for ceil(weights / macro capacity) macros;
// operators larger than the whole chip run in multiple rounds of a
// full-chip wave. Operators are packed in network order, starting a
// new wave when the current one cannot fit the next operator.
func schedule(plans []*LayerPlan, cfg pim.Config) []*Wave {
	capacity := cfg.Macros()
	perMacro := cfg.WeightsPerMacro()
	cur := &Wave{}
	used := 0
	var waves []*Wave
	flush := func() {
		if len(cur.Plans) > 0 {
			waves = append(waves, cur)
			cur = &Wave{}
			used = 0
		}
	}
	for _, p := range plans {
		elems := p.Layer.Elems()
		seg := (elems + perMacro - 1) / perMacro
		if seg < 1 {
			seg = 1
		}
		p.WaveRounds = 1
		if seg > capacity {
			p.WaveRounds = (seg + capacity - 1) / capacity
			seg = capacity
		}
		p.Segments = seg
		if used+seg > capacity {
			flush()
		}
		opID := len(cur.Plans)
		taskHR := p.HR
		if p.Layer.Kind.InputDetermined() {
			// Safe-level selection must assume the worst (EffectiveHR
			// returns 1), but the *actual* activity of QKT/SV operands
			// follows the Hamming statistics of runtime-produced data.
			taskHR = RuntimeOperandHR
		}
		for s := 0; s < seg; s++ {
			cur.Tasks = append(cur.Tasks, mapping.Task{
				Op:              p.Layer.Name,
				OpID:            opID,
				HR:              taskHR,
				InputDetermined: p.Layer.Kind.InputDetermined(),
			})
		}
		cur.Plans = append(cur.Plans, p)
		if p.WaveRounds > cur.Rounds {
			cur.Rounds = p.WaveRounds
		}
		used += seg
	}
	flush()
	return waves
}

// newMapper returns the mapping function for the selected strategy.
func newMapper(cfg pim.Config, opt Options) func([]mapping.Task) *mapping.Mapping {
	switch opt.Strategy {
	case SequentialMap:
		return func(tasks []mapping.Task) *mapping.Mapping { return mapping.Sequential(tasks, cfg) }
	case ZigzagMap:
		return func(tasks []mapping.Task) *mapping.Mapping { return mapping.Zigzag(tasks, cfg) }
	case RandomMap:
		rng := xrand.NewNamed(opt.Seed, "compiler/random-map")
		return func(tasks []mapping.Task) *mapping.Mapping { return mapping.Random(tasks, cfg, rng) }
	case HRAwareMap:
		// One evaluator serves every wave, so its group-score cache
		// carries across them. Its flips come from the named stream
		// compiler/eval, which a per-wave evaluator would redraw
		// identically; the SA stream stays fresh per wave.
		eval := mapping.NewEvaluator(cfg, irdrop.ModelFor(cfg.Kind), opt.Mode, xrand.NewNamed(opt.Seed, "compiler/eval"))
		return func(tasks []mapping.Task) *mapping.Mapping {
			rng := xrand.NewNamed(opt.Seed, "compiler/sa")
			best, _ := mapping.HRAware(tasks, eval, rng, mapping.DefaultSAOptions())
			return best
		}
	default:
		panic(fmt.Sprintf("compiler: unknown strategy %d", int(opt.Strategy)))
	}
}

// Quality returns the surrogate task quality of the compiled network.
func (c *Compiled) Quality() float64 {
	return c.Net.Profile.Acc.AfterDrift(c.Stats.MeanDrift)
}
