package irdrop

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"aim/internal/pdn"
	"aim/internal/xrand"
)

// tightDropsMV is the reference the response table answers to: one cold
// multigrid solve of the window's injection map to 1e-10 V, each group's
// worst drop read off its tile (idle groups report 0).
func tightDropsMV(fp *pdn.Floorplan, act []float64) []float64 {
	rtog := make([]float64, len(fp.GroupTiles))
	for g, a := range act {
		if a > 0 {
			rtog[g] = math.Min(a, 1)
		}
	}
	v, _ := pdn.NewMultigrid(fp.Grid).Solve(fp.CurrentMap(pdn.DefaultActivity(), rtog), 1e-10, 200)
	field := fp.Grid.DropMap(v)
	drop := make([]float64, len(act))
	for g, a := range act {
		if a < 0 {
			continue
		}
		drop[g] = pdn.MaxDropIn(field, fp.Grid.W, fp.GroupTiles[g]) * 1000
	}
	return drop
}

// TestSuperposedMatchesTightSolve: on the 16-tile die the superposed
// field d0 + Σ_t rtog_t·D_t is the mesh's own answer — every group
// within 1e-3 mV of a cold 1e-10 V solve, across random activity that
// mixes idle groups (act < 0) and values the estimator clamps (act > 1).
func TestSuperposedMatchesTightSolve(t *testing.T) {
	sp := spatialAt(1)
	if sp.table == nil {
		t.Fatal("16-tile session is not on the response table")
	}
	fp := pdn.FloorplanAt(1)
	rng := xrand.NewNamed(11, "spatial/superposition")
	act := make([]float64, 16)
	drop := make([]float64, 16)
	for trial := 0; trial < 200; trial++ {
		for g := range act {
			switch u := rng.Float64(); {
			case u < 0.15:
				act[g] = -1
			case u < 0.25:
				act[g] = 1 + rng.Float64()
			default:
				act[g] = rng.Float64()
			}
		}
		sp.EstimateGroups(act, drop)
		want := tightDropsMV(fp, act)
		for g := range drop {
			if d := math.Abs(drop[g] - want[g]); !(d <= 1e-3) {
				t.Fatalf("trial %d group %d (act %.3f): table %.6f mV, tight solve %.6f mV", trial, g, act[g], drop[g], want[g])
			}
		}
	}
	if st := sp.Stats(); st.Solves != 200 || st.VCycles != 0 || st.Saturated != 0 {
		t.Errorf("table session stats %+v, want 200 windows and no V-cycles", st)
	}
}

// firstUseRuns numbers TestSpatialTableConcurrentFirstUse's runs.
var firstUseRuns atomic.Int64

// TestSpatialTableConcurrentFirstUse: sessions racing to build a die's
// table share one build, and every one of them reads the same drops.
// Each run scales the leakage current by its own factor, so its table
// is built here — also under -count=N — not by an earlier test or run.
func TestSpatialTableConcurrentFirstUse(t *testing.T) {
	cur := pdn.DefaultActivity()
	cur.MacroStatic *= 1 + 1e-3*float64(firstUseRuns.Add(1))
	fp := pdn.FloorplanAt(1)
	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i
	}
	act := benchSpatialActivity(16)
	act[3] = -1
	const sessions = 4
	drops := make([][]float64, sessions)
	tables := make([]*responseTable, sessions)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range drops {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			sp := NewSpatial(fp, idx, cur)
			drops[i] = make([]float64, 16)
			sp.EstimateGroups(act, drops[i])
			tables[i] = sp.table
		}()
	}
	start.Done()
	done.Wait()
	for i := 1; i < sessions; i++ {
		if tables[i] != tables[0] {
			t.Errorf("session %d built its own table", i)
		}
		for g := range drops[i] {
			if drops[i][g] != drops[0][g] {
				t.Errorf("session %d group %d: %v mV, session 0 %v mV", i, g, drops[i][g], drops[0][g])
			}
		}
	}
}
