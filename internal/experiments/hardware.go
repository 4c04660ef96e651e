package experiments

import (
	"fmt"

	"aim/internal/compiler"
	"aim/internal/core"
	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/model"
	"aim/internal/pdn"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/runner"
	"aim/internal/sim"
	"aim/internal/stream"
	"aim/internal/tensor"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// Fig3 reproduces the motivation plot: the worst IR-drop of real
// workloads stays well below the sign-off worst case.
func Fig3(seed int64) *Table {
	t := &Table{
		ID:     "fig3",
		Title:  "Normalized worst IR-drop per workload vs sign-off (Fig. 3)",
		Header: []string{"workload", "worst drop (mV)", "normalized", "paper"},
	}
	paper := map[string]string{"yolov5": "50%", "resnet18": "54%", "vit": "61%", "llama3": "63%"}
	cfg := pim.DefaultConfig()
	signoff := irdrop.DPIMModel().SignoffWorstMV()
	names := []string{"yolov5", "resnet18", "vit", "llama3"}
	shardRows(t, len(names), func(i int) [][]string {
		name := names[i]
		net, err := model.ByName(name, seed)
		if err != nil {
			panic(err)
		}
		c := compiler.Compile(net, cfg, compiler.BaselineOptions())
		opt := sim.DVFSOptions(net.Transformer, vf.LowPower)
		opt.Seed = seed
		res := sim.Run(c, cfg, opt)
		return [][]string{{name, f2(res.WorstDropMV), pct(res.WorstDropMV / signoff), paper[name]}}
	})
	t.Notes = "sign-off worst case = 140 mV (100%). Shape: every workload's worst sits at 50-65%, transformers above conv nets."
	return t
}

// Fig4 reproduces the Rtog↔IR-drop correlation across 40 macros for
// DPIM and APIM.
func Fig4(seed int64) *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Correlation of IR-drop and Rtog over 40 macros (Fig. 4)",
		Header: []string{"macro family", "pearson r", "paper r"},
	}
	rng := xrand.NewNamed(seed, "fig4")
	families := []struct {
		name  string
		m     irdrop.Model
		paper string
	}{
		{"DPIM (7nm)", irdrop.DPIMModel(), "0.977"},
		{"APIM (28nm)", irdrop.APIMModel(), "0.998"},
	}
	cfg := pim.Config{Kind: pim.DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 16, CellsPerBank: 64, WeightBits: 8}
	for _, fam := range families {
		var rtogs, drops []float64
		for mi := 0; mi < 40; mi++ {
			// Varied workloads: each macro holds weights of a different
			// width and streams a different toggle intensity.
			b := 0.01 + 0.004*float64(mi%7)
			w := tensor.NewFloat(cfg.WeightsPerMacro())
			for i := range w.Data {
				w.Data[i] = rng.Laplace(0, b)
			}
			q := quant.Quantize(w, 8)
			macro := pim.NewMacro(cfg, q.Codes.Data)
			meanP := 0.2 + 0.6*rng.Float64()
			src := stream.NewBernoulli(cfg.CellsPerBank, 300, meanP, 0.08, rng)
			trace := macro.RtogTrace(src, 0)
			avg := meanOf(trace)
			rtogs = append(rtogs, avg)
			drops = append(drops, fam.m.EstimateNoisy(avg, rng))
		}
		t.AddRow(fam.name, f3(pearson(rtogs, drops)), fam.paper)
	}
	t.Notes = "average per-macro Rtog from the bit-serial simulator vs the Eq. 2 drop with cycle noise; linearity is the basis of the whole architecture-level approach."
	return t
}

// Fig16 reproduces the layout IR-drop heatmaps before/after AIM.
func Fig16(seed int64) *Table {
	t := &Table{
		ID:     "fig16",
		Title:  "IR-drop across the 7nm layout before/after AIM (Fig. 16)",
		Header: []string{"condition", "worst macro drop (mV)", "mean macro drop (mV)", "core drop (mV)", "mitigation"},
	}
	fp := pdn.DefaultFloorplan()
	act := pdn.DefaultActivity()
	before, after := fig16Activities(fp, xrand.NewNamed(seed, "fig16"))
	renderRow := func(label string, rt []float64) (drop []float64, worst float64) {
		drop, worst = fp.SolveActivity(act, rt)
		coreDrop := pdn.MaxDropIn(drop, fp.Grid.W, fp.Cores)
		t.AddRow(label, f2(worst*1000), f2(meanMacroDrop(fp, drop)*1000), f2(coreDrop*1000), "")
		return drop, worst
	}
	dropB, worstB := renderRow("before AIM", before)
	dropA, worstA := renderRow("after AIM", after)
	t.Rows[1][4] = pct(1 - worstA/worstB)
	t.Notes = "ASCII heatmaps (darker = deeper drop; hotspots sit in the macro tiles, not core/memory):\n--- before AIM ---\n" +
		pdn.RenderASCII(dropB, fp.Grid.W, 0, worstB) +
		"--- after AIM ---\n" +
		pdn.RenderASCII(dropA, fp.Grid.W, 0, worstB)
	return t
}

// fig16Activities draws the Fig. 16 per-group peak activities:
// baseline workload vs LHR+WDS optimized weights (HR ~0.49 → ~0.27)
// at high input toggle. Fig16 and Fig16Scale share the calibration so
// the scaled dies stay an extension of the figure, not a fork of it.
func fig16Activities(fp *pdn.Floorplan, rng *xrand.RNG) (before, after []float64) {
	n := len(fp.GroupTiles)
	before = make([]float64, n)
	after = make([]float64, n)
	for i := range before {
		before[i] = 0.95 * (0.50 + 0.04*rng.Float64())
		after[i] = 0.95 * (0.26 + 0.03*rng.Float64())
	}
	return before, after
}

// meanMacroDrop averages the drop over all macro group tiles.
func meanMacroDrop(fp *pdn.Floorplan, drop []float64) float64 {
	var m float64
	for _, r := range fp.GroupTiles {
		m += pdn.MeanDropIn(drop, fp.Grid.W, r)
	}
	return m / float64(len(fp.GroupTiles))
}

// Fig16Scale extends Fig. 16 to production-scale dies: the same
// layout scaled 2×/4×/8× per edge (up to a 512×512-cell mesh with
// 1024 macro-group tiles), solved through the warm-started multigrid
// V-cycle — the scales where the Gauss-Seidel reference would need
// more sweeps than its iteration budget. Bump density and per-cell
// current densities match the calibrated 64×64 die, so the sign-off
// physics carries over while the scenario count and mesh size grow
// two orders of magnitude.
func Fig16Scale(seed int64) *Table {
	t := &Table{
		ID:     "fig16scale",
		Title:  "IR-drop at production die scales via the multigrid PDN solver (Fig. 16 extension)",
		Header: []string{"die", "tiles", "condition", "worst macro drop (mV)", "mean macro drop (mV)", "mitigation"},
	}
	scales := []int{2, 4, 8}
	act := pdn.DefaultActivity()
	shardRows(t, len(scales), func(si int) [][]string {
		f := scales[si]
		fp := pdn.ScaledFloorplan(f)
		before, after := fig16Activities(fp, xrand.NewNamed(seed, fmt.Sprintf("fig16scale/%d", f)))
		die := fmt.Sprintf("%dx%d", fp.Grid.W, fp.Grid.H)
		// The second solve warm-starts from the first — the sweep
		// pattern the solver's cache exists for.
		dropB, worstB := fp.SolveActivity(act, before)
		dropA, worstA := fp.SolveActivity(act, after)
		return [][]string{
			{die, fmt.Sprint(len(fp.GroupTiles)), "before AIM", f2(worstB * 1000), f2(meanMacroDrop(fp, dropB) * 1000), ""},
			{die, fmt.Sprint(len(fp.GroupTiles)), "after AIM", f2(worstA * 1000), f2(meanMacroDrop(fp, dropA) * 1000), pct(1 - worstA/worstB)},
		}
	})
	t.Notes = "multigrid V-cycle with red-black parallel sweeps and warm starts (internal/pdn); per-scale worst drops stay in the calibrated band because bump density and tile current density are scale-invariant."
	return t
}

// Fig16Live runs the Fig. 16 comparison live inside the runtime
// simulator instead of as a standalone mesh solve: one compiled
// workload executes at the PackedToggles tier (scalar Eq. 2 drops —
// the analytic booster behaviour) and at the SpatialPDN tier (the
// warm-started multigrid PDN solved per cycle-window, drops read from
// each group's floorplan tiles), on the paper's 16-group die (f=1)
// and a production-scale 256-group die (f=4). IR-Booster reacts to
// whichever drops its monitors see, so the table shows how spatial
// coupling shifts failure counts, delay and mitigation — the coupling
// of the two flagship subsystems the estimator layer exists for.
func Fig16Live(seed int64) *Table {
	t := &Table{
		ID:     "fig16live",
		Title:  "Analytic vs spatial IR-drop live under IR-Booster (Fig. 16 live extension)",
		Header: []string{"die", "groups", "fidelity", "worst drop (mV)", "avg drop (mV)", "failures", "delay", "mitigation"},
	}
	type combo struct {
		f   int
		fid sim.Fidelity
	}
	var combos []combo
	for _, f := range []int{1, 4} {
		for _, fid := range []sim.Fidelity{sim.PackedToggles, sim.SpatialPDN} {
			combos = append(combos, combo{f, fid})
		}
	}
	shardRows(t, len(combos), func(i int) [][]string {
		c := combos[i]
		cfg := pim.DefaultConfig()
		cfg.Groups = 16 * c.f * c.f
		net, err := model.ByName("resnet18", seed)
		if err != nil {
			panic(err)
		}
		copt := compiler.DefaultOptions()
		copt.Strategy = compiler.SequentialMap
		copt.Seed = seed
		comp := compiler.Compile(net, cfg, copt)
		opt := sim.DefaultOptions(net.Transformer, vf.LowPower)
		opt.Seed = seed
		opt.Fidelity = c.fid
		res := sim.Run(comp, cfg, opt)
		return [][]string{{
			fmt.Sprintf("%dx%d", 64*c.f, 64*c.f), fmt.Sprint(cfg.Groups), c.fid.String(),
			f2(res.WorstDropMV), f2(res.AvgDropMV), fmt.Sprint(res.Failures),
			f3(res.DelayFactor), pct(res.WeightOpMitigation),
		}}
	})
	t.Notes = "same compiled plan per die — fidelity is a runtime knob. Shape: spatial worst drops stay within the calibration band of the analytic tier; sequential mapping clusters the occupied groups in one die corner, so the spatial booster sees their neighbour coupling and trades failures/delay accordingly. The f=4 die solves a 256x256 mesh in the cycle loop — the warm-start hot path at production scale."
	return t
}

// Fig17 reproduces the §6.5 traces: demanded drive current, bump
// voltage and bump current before and after AIM.
func Fig17(seed int64) *Table {
	t := &Table{
		ID:     "fig17",
		Title:  "Drive current / bump voltage / bump current before vs after AIM (Fig. 17)",
		Header: []string{"condition", "peak current (A)", "mean current (A)", "min bump V", "mean bump V"},
	}
	net := model.ResNet18(seed)
	stages := []core.Stage{core.StageBaseline, core.StageBooster}
	shardRows(t, len(stages), func(i int) [][]string {
		s := stages[i]
		p := core.NewPipeline(vf.LowPower)
		p.Seed = seed
		opt := p.SimOptions(s, net.Transformer)
		opt.TraceWave = 0
		res := sim.Run(p.CompileStage(net, s), p.Chip, opt)
		cur := res.CurrentTrace
		volt := res.VoltageTrace
		minV := volt[0]
		for _, v := range volt {
			if v < minV {
				minV = v
			}
		}
		label := "before AIM"
		if s == core.StageBooster {
			label = "after AIM"
		}
		return [][]string{{label, f3(maxOf(cur)), f3(meanOf(cur)), f3(minV), f3(meanOf(volt))}}
	})
	t.Notes = "paper Fig. 17: AIM cuts demanded drive current and bump current and stabilizes bump voltage; full per-cycle traces are available from sim.Result."
	return t
}

// Sec66 reproduces the headline §6.6 numbers on the 7nm 256-TOPS
// design: IR-drop mitigation, per-macro power, and chip TOPS.
func Sec66(seed int64) *Table {
	t := &Table{
		ID:     "sec66",
		Title:  "Headline results on the 7nm 256-TOPS PIM (§6.6)",
		Header: []string{"workload", "mode", "drop (mV)", "mitigation", "macro power (mW)", "eff. gain", "TOPS", "speedup"},
	}
	combos := []struct {
		name string
		mode vf.Mode
	}{
		{"resnet18", vf.LowPower}, {"resnet18", vf.Sprint},
		{"vit", vf.LowPower}, {"vit", vf.Sprint},
	}
	shardRows(t, len(combos), func(i int) [][]string {
		c := combos[i]
		net, err := model.ByName(c.name, seed)
		if err != nil {
			panic(err)
		}
		p := core.NewPipeline(c.mode)
		p.Seed = seed
		rep := p.Run(net)
		return [][]string{{c.name, c.mode.String(),
			f2(rep.AIM.Result.WorstWeightOpDropMV), pct(rep.Mitigation()),
			f3(rep.AIM.Result.AvgMacroPowerMW), f2(rep.EfficiencyGain()) + "x",
			fmt.Sprintf("%.0f", rep.AIM.Result.TOPS), f3(rep.Speedup()) + "x"}}
	})
	t.Notes = "paper: 140 → 58.1-43.2 mV (58.5-69.2% mitigation); 4.2978 → 2.243-1.876 mW (1.91-2.29x); 256 → 289-295 TOPS (1.129-1.152x, sprint)."
	return t
}

// Fig18 reproduces the β sweep: normalized mitigation ability and
// delay cycles versus IR-Booster without aggressive adjustment.
func Fig18(seed int64) *Table {
	t := &Table{
		ID:     "fig18",
		Title:  "Impact of β on IR-Booster (Fig. 18)",
		Header: []string{"beta", "resnet18 mitig.", "resnet18 delay", "vit mitig.", "vit delay"},
	}
	cfg := pim.DefaultConfig()
	type ref struct {
		c      *compiler.Compiled
		netT   bool
		mitRef float64
		delRef float64
	}
	names := []string{"resnet18", "vit"}
	m := irdrop.DPIMModel()
	refList := runner.Collect(len(names), 0, func(i int) *ref {
		net, _ := model.ByName(names[i], seed)
		opt := compiler.DefaultOptions()
		opt.Strategy = compiler.SequentialMap
		c := compiler.Compile(net, cfg, opt)
		safeOpt := sim.DefaultOptions(net.Transformer, vf.LowPower)
		safeOpt.Aggressive = false
		safeOpt.Seed = seed
		safe := sim.Run(c, cfg, safeOpt)
		return &ref{
			c: c, netT: net.Transformer,
			mitRef: 1 - m.Estimate(safe.AvgLevelRtog)/m.SignoffWorstMV(),
			delRef: safe.DelayFactor,
		}
	})
	betas := []int{90, 80, 70, 60, 50, 40, 30, 20, 10}
	shardRows(t, len(betas), func(i int) [][]string {
		beta := betas[i]
		row := []string{fmt.Sprint(beta)}
		for _, r := range refList {
			opt := sim.DefaultOptions(r.netT, vf.LowPower)
			opt.Beta = beta
			opt.Seed = seed
			res := sim.Run(r.c, cfg, opt)
			mit := 1 - m.Estimate(res.AvgLevelRtog)/m.SignoffWorstMV()
			row = append(row, f3(mit/r.mitRef), f3(res.DelayFactor/r.delRef))
		}
		return [][]string{row}
	})
	t.Notes = "normalized against safe-level-only IR-Booster. Shape: smaller β → more mitigation ability, more delay cycles; ViT (input-dependent ops) gains and pays more."
	return t
}

// Fig19 reproduces the §6.8 ablation: IR-drop, power and effective
// compute across the AIM stage ladder on ViT and ResNet18.
func Fig19(seed int64) *Table {
	t := &Table{
		ID:     "fig19",
		Title:  "Ablation: IR-drop, power, performance per AIM stage (Fig. 19)",
		Header: []string{"workload", "stage", "drop (mV)", "macro power (mW)", "eff. TOPS"},
	}
	names := []string{"vit", "resnet18"}
	shardRows(t, len(names), func(i int) [][]string {
		name := names[i]
		net, err := model.ByName(name, seed)
		if err != nil {
			panic(err)
		}
		return rowsOf(func(t *Table) {
			p := core.NewPipeline(vf.LowPower)
			p.Seed = seed
			for _, s := range core.Stages() {
				res := p.RunStage(net, s)
				tops := res.Result.TOPS
				if s == core.StageBooster {
					// Performance column uses sprint mode, as the paper does.
					ps := core.NewPipeline(vf.Sprint)
					ps.Seed = seed
					tops = ps.RunStage(net, s).Result.TOPS
				}
				t.AddRow(name, s.String(), f2(res.Result.WorstWeightOpDropMV), f3(res.Result.AvgMacroPowerMW), fmt.Sprintf("%.0f", tops))
			}
		})
	})
	t.Notes = "paper Fig. 19: conv workloads gain mostly from LHR; transformers gain mostly from IR-Booster (input-determined QKT/SV defeat offline optimization)."
	return t
}

// Fig20 reproduces the energy-efficiency decomposition of Fig. 20:
// IR-Booster alone vs +LHR vs +LHR+WDS.
func Fig20(seed int64) *Table {
	t := &Table{
		ID:     "fig20",
		Title:  "Energy-efficiency gains: IR-Booster alone and with LHR/WDS (Fig. 20)",
		Header: []string{"workload", "booster only", "+LHR", "+LHR+WDS"},
	}
	cfg := pim.DefaultConfig()
	names := []string{"resnet18", "mobilenetv2", "yolov5", "vit", "llama3", "gpt2"}
	shardRows(t, len(names), func(i int) [][]string {
		net, err := model.ByName(names[i], seed)
		if err != nil {
			panic(err)
		}
		base := compiler.Compile(net, cfg, compiler.BaselineOptions())
		dvfs := sim.Run(base, cfg, dvfsOpt(net, seed))
		// Energy efficiency = throughput per watt; the gain is the
		// TOPS/W ratio against the DVFS baseline.
		baseEff := dvfs.TOPS / dvfs.AvgMacroPowerMW
		gain := func(useLHR bool, delta int) float64 {
			opt := compiler.BaselineOptions()
			opt.UseLHR = useLHR
			opt.WDSDelta = delta
			c := compiler.Compile(net, cfg, opt)
			so := sim.DefaultOptions(net.Transformer, vf.LowPower)
			so.Seed = seed
			r := sim.Run(c, cfg, so)
			return (r.TOPS / r.AvgMacroPowerMW) / baseEff
		}
		return [][]string{{names[i],
			f2(gain(false, 0)) + "x",
			f2(gain(true, 0)) + "x",
			f2(gain(true, 16)) + "x"}}
	})
	t.Notes = "paper Fig. 20: IR-Booster alone 1.51-2.10x; +LHR+WDS up to 2.64x. Ordering must hold per row: booster < +LHR < +LHR+WDS."
	return t
}

func dvfsOpt(net *model.Network, seed int64) sim.Options {
	o := sim.DVFSOptions(net.Transformer, vf.LowPower)
	o.Seed = seed
	return o
}

// Fig21 reproduces the mapping-strategy comparison over the four
// operator mixes, in both modes.
func Fig21(seed int64) *Table {
	t := &Table{
		ID:     "fig21",
		Title:  "HR-aware task mapping vs sequential/random/zigzag (Fig. 21)",
		Header: []string{"operator mix", "strategy", "low-power power (mW)", "sprint TOPS"},
	}
	cfg := pim.DefaultConfig()
	mixes := []struct {
		name  string
		tasks []mapping.Task
	}{
		// Task counts intentionally misalign with the 4-macro group
		// boundaries so naive mappings co-locate operators with very
		// different HR levels — the situation §5.6 motivates.
		{"Conv + QKT", opMix(30, "conv", 0.27, false, 18, "qkt", 0, true)},
		{"Conv + SV", opMix(26, "conv", 0.27, false, 22, "sv", 0, true)},
		{"Q/K/V Gen + QKT", opMix(31, "qkvgen", 0.31, false, 19, "qkt", 0, true)},
		{"SV + Linear", opMix(21, "sv", 0, true, 27, "linear", 0.29, false)},
	}
	strategies := []struct {
		name string
		run  func(tasks []mapping.Task, e *mapping.Evaluator, rng *xrand.RNG) *mapping.Mapping
	}{
		{"sequential", func(tasks []mapping.Task, e *mapping.Evaluator, _ *xrand.RNG) *mapping.Mapping {
			return mapping.Sequential(tasks, cfg)
		}},
		{"random", func(tasks []mapping.Task, e *mapping.Evaluator, rng *xrand.RNG) *mapping.Mapping {
			return mapping.Random(tasks, cfg, rng)
		}},
		{"zigzag", func(tasks []mapping.Task, e *mapping.Evaluator, _ *xrand.RNG) *mapping.Mapping {
			return mapping.Zigzag(tasks, cfg)
		}},
		{"hr-aware", func(tasks []mapping.Task, e *mapping.Evaluator, rng *xrand.RNG) *mapping.Mapping {
			best, _ := mapping.HRAware(tasks, e, rng, mapping.DefaultSAOptions())
			return best
		}},
	}
	shardRows(t, len(mixes)*len(strategies), func(i int) [][]string {
		mix := mixes[i/len(strategies)]
		st := strategies[i%len(strategies)]
		evalLP := mapping.NewEvaluator(cfg, irdrop.DPIMModel(), vf.LowPower, xrand.NewNamed(seed, "fig21/lp/"+mix.name))
		evalSP := mapping.NewEvaluator(cfg, irdrop.DPIMModel(), vf.Sprint, xrand.NewNamed(seed, "fig21/sp/"+mix.name))
		rngLP := xrand.NewNamed(seed, "fig21/"+mix.name+st.name+"/lp")
		rngSP := xrand.NewNamed(seed, "fig21/"+mix.name+st.name+"/sp")
		mLP := st.run(mix.tasks, evalLP, rngLP)
		mSP := st.run(mix.tasks, evalSP, rngSP)
		lp := evalLP.Evaluate(mLP, mix.tasks)
		sp := evalSP.Evaluate(mSP, mix.tasks)
		return [][]string{{mix.name, st.name, f2(lp.PowerMW), fmt.Sprintf("%.0f", sp.TOPS)}}
	})
	t.Notes = "paper Fig. 21: HR-aware mapping dominates on both axes for every operator mix; naive mappings co-locate incompatible HR levels."
	return t
}

// opMix builds two-operator task mixes for Fig. 21.
func opMix(n1 int, op1 string, hr1 float64, id1 bool, n2 int, op2 string, hr2 float64, id2 bool) []mapping.Task {
	var tasks []mapping.Task
	for i := 0; i < n1; i++ {
		hr := hr1
		if id1 {
			hr = compiler.RuntimeOperandHR
		}
		tasks = append(tasks, mapping.Task{Op: op1, OpID: 0, HR: hr, InputDetermined: id1})
	}
	for i := 0; i < n2; i++ {
		hr := hr2
		if id2 {
			hr = compiler.RuntimeOperandHR
		}
		tasks = append(tasks, mapping.Task{Op: op2, OpID: 1, HR: hr, InputDetermined: id2})
	}
	return tasks
}

// Fig22 reproduces the §7 discussion: AIM on the 28nm APIM macro
// (~50% mitigation) and on a pure adder tree.
func Fig22(seed int64) *Table {
	t := &Table{
		ID:     "fig22",
		Title:  "AIM on APIM and on a pure adder tree (Fig. 22)",
		Header: []string{"target", "workload", "normalized IR-drop w AIM", "mitigation"},
	}
	names := []string{"vit", "resnet18"}
	shardRows(t, len(names), func(i int) [][]string {
		name := names[i]
		net, err := model.ByName(name, seed)
		if err != nil {
			panic(err)
		}
		// APIM: 28nm 128x32 macro config.
		acfg := pim.Config{Kind: pim.APIM, Groups: 16, MacrosPerGroup: 4, BanksPerMacro: 32, CellsPerBank: 128, WeightBits: 8}
		opt := compiler.DefaultOptions()
		opt.Strategy = compiler.SequentialMap
		c := compiler.Compile(net, acfg, opt)
		so := sim.DefaultOptions(net.Transformer, vf.LowPower)
		so.Seed = seed
		res := sim.Run(c, acfg, so)
		// Pure adder tree: measure the register-level switching
		// activity of a bit-serial reduction tree fed by baseline vs
		// optimized weights (pim.AdderTree), and map activity through a
		// dynamic-dominated drop model (no bit-cell static floor).
		base := compiler.Compile(net, acfg, compiler.BaselineOptions())
		actBase := adderTreeActivity(base, seed)
		actOpt := adderTreeActivity(c, seed)
		adder := irdrop.Model{StaticMV: 4, DynCoeffMV: 136, NoiseMV: 5}
		mit := 1 - adder.Estimate(actOpt)/adder.Estimate(actBase)
		return [][]string{
			{"APIM 28nm", name, f3(1 - res.WeightOpMitigation), pct(res.WeightOpMitigation)},
			{"adder tree", name, f3(1 - mit), pct(mit)},
		}
	})
	t.Notes = "paper §7: APIM mitigation ~50% (larger static share, analog sensitivity); bit-serial adder trees still mitigate notably → AIM extends to digital MAC fabrics."
	return t
}

// VfSensitivity reproduces the §5.5.1 sensitivity analysis of the V-f
// level range and step.
func VfSensitivity(seed int64) *Table {
	t := &Table{
		ID:     "vfsens",
		Title:  "V-f level range/step sensitivity (§5.5.1)",
		Header: []string{"level grid", "mitigation ability", "vs reference"},
	}
	// Optimized per-layer HR distribution over the whole zoo gives the
	// spread of group HRs the level grid must serve.
	var hrs []float64
	for _, n := range model.All(seed) {
		st := model.NetworkHR(n, model.WDSConfig(16))
		hrs = append(hrs, st.PerLayer...)
	}
	m := irdrop.DPIMModel()
	// A group's steady-state aggressive level settles where failures
	// become rare: near the high quantile of its actual activity
	// (≈0.7·HR for the reference toggle process), snapped up to the
	// grid. Mitigation ability averages the mitigation those
	// equilibrium levels deliver.
	ability := func(minPct, maxPct, step int) float64 {
		total := 0.0
		for _, hr := range hrs {
			eq := 0.7 * hr
			pct100 := int(ceil(eq*100/float64(step)) * float64(step))
			if pct100 < minPct {
				pct100 = minPct
			}
			lvl := 1.0
			if pct100 <= maxPct {
				lvl = float64(pct100) / 100
			}
			total += 1 - m.Estimate(lvl)/m.SignoffWorstMV()
		}
		return total / float64(len(hrs))
	}
	refAbility := ability(20, 60, 5)
	grids := []struct {
		label          string
		min, max, step int
	}{
		{"20-60% step 5 (reference)", 20, 60, 5},
		{"25-60% step 5 (narrowed low end)", 25, 60, 5},
		{"20-55% step 5 (narrowed high end)", 20, 55, 5},
		{"15-65% step 5 (widened)", 15, 65, 5},
		{"20-60% step 10 (coarse 4x4-like)", 20, 60, 10},
		{"20-60% step 2 (finer, 36+ pairs)", 20, 60, 2},
	}
	for _, g := range grids {
		a := ability(g.min, g.max, g.step)
		t.AddRow(g.label, pct(a), f3(a/refAbility))
	}
	t.Notes = "paper §5.5.1: narrowing the range by 5% loses >17% mitigation capability; widening gains <3%; steps ≥6% lose >8%; finer steps gain ~6% at unacceptable hardware cost."
	return t
}

// adderTreeActivity runs one representative weight-carrying plan's
// codes through a register-level adder tree against a toggling input
// stream and returns the per-bit register activity rate.
func adderTreeActivity(c *compiler.Compiled, seed int64) float64 {
	var codes []int32
	for _, p := range c.Plans {
		if p.Quant != nil {
			codes = p.Quant.Codes.Data
			break
		}
	}
	if len(codes) > 64 {
		codes = codes[:64]
	}
	rng := xrand.NewNamed(seed, "fig22/addertree/"+c.Net.Name)
	acts := stream.GenerateActivations(stream.DefaultActivations(stream.TokenActs), len(codes), 40, rng)
	bs, err := stream.NewBitSerial(acts, 8)
	if err != nil {
		panic(err)
	}
	tree := pim.NewAdderTree(len(codes), 24)
	// Bit-serial reduction: each cycle the tree sums the weights gated
	// by that cycle's input bits (Fig. 1b), so register toggles track
	// the Hamming content of the stored codes.
	seq := make([][]int64, bs.Cycles())
	for t := 0; t < bs.Cycles(); t++ {
		products := make([]int64, len(codes))
		for k, w := range codes {
			if bs.Bit(t, k) != 0 {
				products[k] = int64(w)
			}
		}
		seq[t] = products
	}
	return tree.ActivityRate(seq)
}

func ceil(x float64) float64 {
	i := float64(int64(x))
	if x > i {
		return i + 1
	}
	return i
}

// Overhead reproduces the §6.10 area/power overhead accounting.
func Overhead(seed int64) *Table {
	t := &Table{
		ID:     "overhead",
		Title:  "Area and power overhead of AIM hardware (§6.10)",
		Header: []string{"component", "area", "power", "paper bound"},
	}
	cfg := pim.DefaultConfig()
	scA, scP := pim.SCOverhead(cfg)
	monA, monP := irdrop.MonitorOverhead(cfg.Groups)
	t.AddRow("shift compensator", pct(scA), pct(scP), "<0.2% / <1%")
	t.AddRow("IR monitors", pct(monA), pct(monP), "<0.1% / <0.5%")
	t.AddRow("V-f control (RISC-V reuse)", "~0%", "~0%", "negligible")
	t.Notes = "one compensator per macro is shared by all banks; monitors are a handful of inverters per group; V-f control reuses the existing RISC-V cores."
	return t
}
