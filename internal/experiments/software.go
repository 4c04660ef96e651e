package experiments

import (
	"fmt"

	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/quant"
	"aim/internal/stream"
	"aim/internal/xrand"
)

// Table2 reproduces the paper's Table 2: HRaverage and HRmax reduction
// of +LHR, +WDS(δ=8) and +WDS(δ=16) over the QAT baseline, for all six
// models.
func Table2(seed int64) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "HRaverage and HRmax reduction over baseline (Table 2)",
		Header: []string{"model", "LHR avg", "WDS8 avg", "WDS16 avg", "LHR max", "WDS8 max", "WDS16 max"},
	}
	nets := model.All(seed)
	shardRows(t, len(nets), func(i int) [][]string {
		n := nets[i]
		b := model.NetworkHR(n, model.BaselineConfig())
		l := model.NetworkHR(n, model.LHRConfig())
		w8 := model.NetworkHR(n, model.WDSConfig(8))
		w16 := model.NetworkHR(n, model.WDSConfig(16))
		rel := func(x, y float64) float64 { return (x - y) / x }
		return [][]string{{n.Name,
			pct(rel(b.Average, l.Average)), pct(rel(b.Average, w8.Average)), pct(rel(b.Average, w16.Average)),
			pct(rel(b.Max, l.Max)), pct(rel(b.Max, w8.Max)), pct(rel(b.Max, w16.Max))}}
	})
	t.Notes = "paper (avg): resnet18 28/39/45.6  mobilenet 29/30.6/33.6  yolov5 23/31.5/38.6  vit 25.9/31.9/35.6  llama3 25.9/30.7/36.3  gpt2 30.7/38/41.5"
	return t
}

// Table3 reproduces Table 3: LHR integrated with PTQ methods
// (OmniQuant on LLMs, BRECQ on conv nets): HRaverage plus quality.
func Table3(seed int64) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "HRaverage and accuracy impact of PTQ + LHR (Table 3)",
		Header: []string{"ptq", "model", "HR w/o", "HR w", "quality w/o", "quality w"},
	}
	cases := []struct {
		method quant.PTQMethod
		name   string
		baseQ  float64 // paper's PTQ-baseline quality (ppl or acc)
		metric quant.Metric
	}{
		{quant.OmniQuantLite, "gpt2", 28.69, quant.Perplexity},
		{quant.OmniQuantLite, "llama3", 11.16, quant.Perplexity},
		{quant.BRECQLite, "resnet18", 73.02, quant.Accuracy},
		{quant.BRECQLite, "mobilenetv2", 69.715, quant.Accuracy},
	}
	shardRows(t, len(cases), func(i int) [][]string {
		c := cases[i]
		net, err := model.ByName(c.name, seed)
		if err != nil {
			panic(err)
		}
		var hrPlain, hrLHR, elems float64
		var driftSum float64
		for _, l := range net.WeightLayers() {
			plain := quant.PTQQuantize(l.Weights, quant.DefaultPTQOptions(c.method, false))
			withL := quant.PTQQuantize(l.Weights, quant.DefaultPTQOptions(c.method, true))
			e := float64(l.Elems())
			hrPlain += plain.HR() * e
			hrLHR += withL.HR() * e
			driftSum += quant.MeanAbsCodeDelta(plain, withL) * e
			elems += e
		}
		hrPlain /= elems
		hrLHR /= elems
		// The regularization bonus only applies when LHR is in the loop;
		// the plain PTQ baseline sits at the paper's reported quality.
		acc := net.Profile.Acc
		acc.Metric = c.metric
		acc.Base = c.baseQ
		plainAcc := acc
		plainAcc.RegGain = 0
		qualPlain := plainAcc.AfterDrift(0)
		// PTQ cannot retrain, so LHR's ±1 rounding nudges carry a mild
		// cost the drift model sees in full (no QAT re-adaptation).
		lhrAcc := acc
		lhrAcc.DriftFree = 0
		lhrAcc.DriftSens = acc.DriftSens * 0.15
		qualLHR := lhrAcc.AfterDrift(driftSum / elems)
		return [][]string{{c.method.String(), c.name, f3(hrPlain), f3(hrLHR), f2(qualPlain), f2(qualLHR)}}
	})
	t.Notes = "paper: OmniQuant gpt2 0.51→0.47 (ppl 28.69→28.72); llama3 0.53→0.49 (11.16→10.947); BRECQ resnet18 0.5→0.47 (73.02→72.9); mobilenetv2 0.49→0.46 (69.715→69.71)"
	return t
}

// Fig5 reproduces the Rtog distribution profiling of Fig. 5: the two
// named operators, with and without HR optimization, run through the
// bit-serial macro simulator; peak Rtog never exceeds HR (Eq. 4).
func Fig5(seed int64) *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Rtog distribution: HR dominates max(Rtog) (Fig. 5)",
		Header: []string{"operator", "config", "HR", "max(Rtog)", "mean(Rtog)", "p99(Rtog)"},
	}
	cases := []struct {
		netName, layerName string
		acts               stream.ActivationKind
	}{
		{"resnet18", "layer3.0.conv1", stream.ImageActs},
		{"vit", "blocks.6.mlp.fc1", stream.TokenActs},
	}
	cfg := pim.Config{Kind: pim.DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 64, CellsPerBank: 128, WeightBits: 8}
	const cycles = 50000
	shardRows(t, len(cases), func(i int) [][]string {
		c := cases[i]
		net, err := model.ByName(c.netName, seed)
		if err != nil {
			panic(err)
		}
		var layer *model.Layer
		for _, l := range net.Layers {
			if l.Name == c.layerName {
				layer = l
			}
		}
		if layer == nil {
			panic("fig5: layer not found: " + c.layerName)
		}
		lhrOpt := net.LHROptions()
		res := quant.OptimizeLayer(layer.Weights, 8, &lhrOpt, 8)
		return rowsOf(func(t *Table) {
			for _, withOpt := range []bool{false, true} {
				q := res.Base
				label := "w/o HR-opt"
				if withOpt {
					q = res.Deployed
					label = "w HR-opt"
				}
				codes := q.Codes.Data
				if len(codes) > cfg.WeightsPerMacro() {
					codes = codes[:cfg.WeightsPerMacro()]
				}
				macro := pim.NewMacro(cfg, codes)
				rng := xrand.NewNamed(seed, "fig5/"+c.layerName+label)
				vectors := cycles/8 + 1
				src, err := stream.WorkloadToggles(c.acts, cfg.CellsPerBank, vectors, rng)
				if err != nil {
					panic(err)
				}
				trace := macro.RtogTrace(src, cycles)
				sorted := sortedCopy(trace)
				p99 := sorted[len(sorted)*99/100]
				t.AddRow(c.netName+"/"+c.layerName, label,
					pct(macro.HR()), pct(maxOf(trace)), pct(meanOf(trace)), pct(p99))
			}
		})
	})
	t.Notes = "paper: resnet18 layer3.0.conv1 HR 51.7→29.8%, max(Rtog) 43.7→23.6%; vit fc1 HR 49.9→35.8%, max(Rtog) 40.2→28.3%. Invariant: max(Rtog) <= HR in every row."
	return t
}

// Fig7 reproduces the weight-distribution view of Fig. 7a: LHR aligns
// weights with local minima of the Hamming function (0, ±8, ...).
func Fig7(seed int64) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Quantized weight distribution w/ and w/o LHR (Fig. 7a)",
		Header: []string{"code bin", "count w/o LHR", "count w LHR", "bin Hamming"},
	}
	net := model.ResNet18(seed)
	var base, lhr []float64
	hamAt := map[int]int{}
	lhrOpt := net.LHROptions()
	for _, l := range net.WeightLayers() {
		r := quant.OptimizeLayer(l.Weights, 8, &lhrOpt, 0)
		for _, c := range r.Base.Codes.Data {
			base = append(base, float64(c))
		}
		for _, c := range r.Deployed.Codes.Data {
			lhr = append(lhr, float64(c))
		}
	}
	// 16 bins of width 8 over [-64, 64).
	hb := histogram(base, -64, 64, 16)
	hl := histogram(lhr, -64, 64, 16)
	for i := 0; i < 16; i++ {
		lo := -64 + i*8
		ham := 0
		for c := lo; c < lo+8; c++ {
			ham += hamming8(c)
		}
		hamAt[lo] = ham
		t.AddRow(fmt.Sprintf("[%d,%d)", lo, lo+8), fmt.Sprint(hb[i]), fmt.Sprint(hl[i]), fmt.Sprintf("%.2f", float64(ham)/8))
	}
	t.Notes = "paper Fig. 7a: LHR concentrates mass at Hamming local minima (…,-8, 0, 8,…); compare LHR counts in low-Hamming bins vs baseline."
	return t
}

func hamming8(c int) int {
	u := uint8(int8(clampInt(c, -128, 127)))
	n := 0
	for u != 0 {
		n += int(u & 1)
		u >>= 1
	}
	return n
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Fig12 reproduces the per-layer HR view of Fig. 12 on ResNet18.
func Fig12(seed int64) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "HR per ResNet18 layer: baseline / LHR / LHR+WDS(16) (Fig. 12)",
		Header: []string{"layer", "baseline", "+LHR", "+LHR+WDS"},
	}
	net := model.ResNet18(seed)
	b := model.QuantizeNetwork(net, model.BaselineConfig())
	l := model.QuantizeNetwork(net, model.LHRConfig())
	w := model.QuantizeNetwork(net, model.WDSConfig(16))
	for i := range b {
		t.AddRow(b[i].Layer.Name, pct(b[i].HR), pct(l[i].HR), pct(w[i].HR))
	}
	sb, sl, sw := model.Stats(b), model.Stats(l), model.Stats(w)
	t.AddRow("HRaverage", pct(sb.Average), pct(sl.Average), pct(sw.Average))
	t.AddRow("HRmax", pct(sb.Max), pct(sl.Max), pct(sw.Max))
	t.Notes = "paper Fig. 12: most layers sit at similar HR (uniform within-network distribution); early small-kernel layers are outliers."
	return t
}

// Fig13 reproduces the HR-vs-quality trade-off of Fig. 13 across all
// models and the four configurations.
func Fig13(seed int64) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "HR decrease and accuracy influence (Fig. 13)",
		Header: []string{"model", "config", "HRaverage", "quality", "metric"},
	}
	configs := []struct {
		label string
		cfg   model.QuantConfig
	}{
		{"(a) baseline", model.BaselineConfig()},
		{"(b) +LHR", model.LHRConfig()},
		{"(c) +WDS(8)", model.WDSConfig(8)},
		{"(d) +WDS(16)", model.WDSConfig(16)},
	}
	nets := model.All(seed)
	shardRows(t, len(nets), func(i int) [][]string {
		n := nets[i]
		return rowsOf(func(t *Table) {
			for _, c := range configs {
				st := model.NetworkHR(n, c.cfg)
				t.AddRow(n.Name, c.label, f3(st.Average), f2(n.Quality(st)), n.Profile.Acc.Metric.String())
			}
		})
	})
	t.Notes = "paper: HR falls sharply across (a)→(d) while quality moves <1 point; ViT/Llama3 improve slightly (regularization effect)."
	return t
}

// Fig14 reproduces the δ sweep of Fig. 14: normalized HR (vs LHR-only)
// for δ = 0..17 on ResNet18 and ViT; only powers of two aligned with
// the Hamming minima (8, 16) help.
func Fig14(seed int64) *Table {
	t := &Table{
		ID:     "fig14",
		Title:  "Impact of δ on WDS: HR normalized to LHR-only (Fig. 14)",
		Header: []string{"delta", "resnet18", "vit"},
	}
	nets := []*model.Network{model.ResNet18(seed), model.ViT(seed)}
	// Pre-compute LHR-only codes once per net; the sweep shifts them.
	all := make([][]model.LayerQuant, len(nets))
	ref := make([]float64, len(nets))
	for i, n := range nets {
		all[i] = model.QuantizeNetwork(n, model.LHRConfig())
		ref[i] = model.Stats(all[i]).Average
	}
	shardRows(t, 18, func(delta int) [][]string {
		row := []string{fmt.Sprint(delta)}
		for i := range nets {
			var hr, elems float64
			for _, lq := range all[i] {
				e := float64(lq.Layer.Elems())
				shifted, _ := quant.ShiftWeights(lq.Q, delta)
				hr += shifted.HR() * e
				elems += e
			}
			row = append(row, f3(hr/elems/ref[i]))
		}
		return [][]string{row}
	})
	t.Notes = "paper Fig. 14: normalized HR dips below 1.0 only at δ=8 and δ=16; other δ raise HR (two's-complement alignment)."
	return t
}

// Fig15 reproduces the pruning comparison of Fig. 15: accuracy vs HR
// for pruning alone, pruning+LHR, LHR, and LHR+WDS(8) at sparsity
// targets 10-50% on ResNet18 and ViT.
func Fig15(seed int64) *Table {
	t := &Table{
		ID:     "fig15",
		Title:  "Pruning vs/+ LHR&WDS: accuracy vs HR (Fig. 15)",
		Header: []string{"model", "config", "sparsity", "HR", "accuracy"},
	}
	nets := []*model.Network{model.ResNet18(seed), model.ViT(seed)}
	shardRows(t, len(nets), func(ni int) [][]string {
		n := nets[ni]
		return rowsOf(func(t *Table) {
			fig15Rows(t, n)
		})
	})
	t.Notes = "paper Fig. 15: pruning lowers HR but costs accuracy as sparsity grows; LHR(+WDS) reaches lower HR at near-baseline accuracy; the two compose."
	return t
}

// fig15Rows emits one network's reference and pruning-sweep rows.
func fig15Rows(t *Table, n *model.Network) {
	lhrOpt := n.LHROptions()
	// Reference points without pruning.
	lhrStats := model.NetworkHR(n, model.LHRConfig())
	t.AddRow(n.Name, "LHR", "0%", f3(lhrStats.Average), f2(n.Quality(lhrStats)))
	wdsStats := model.NetworkHR(n, model.WDSConfig(8))
	t.AddRow(n.Name, "LHR+WDS(8)", "0%", f3(wdsStats.Average), f2(n.Quality(wdsStats)))
	for _, target := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		sched := quant.GMPSchedule{Target: target, Steps: 8}
		var hrP, hrPL, elems, driftPL float64
		for _, l := range n.WeightLayers() {
			pruned := quant.RunGMP(l.Weights, sched)
			e := float64(l.Elems())
			res := quant.OptimizeLayer(pruned, 8, &lhrOpt, 0)
			hrP += res.Base.HR() * e
			hrPL += res.HR * e
			driftPL += res.Drift * e
			elems += e
		}
		accP := n.Profile.Acc.AfterPrune(target, 0)
		accPL := n.Profile.Acc.AfterPrune(target, driftPL/elems)
		t.AddRow(n.Name, "pruning", pct(target), f3(hrP/elems), f2(accP))
		t.AddRow(n.Name, "pruning+LHR", pct(target), f3(hrPL/elems), f2(accPL))
	}
}
