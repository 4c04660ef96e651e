package mapping

import (
	"fmt"
	"testing"

	"aim/internal/booster"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// evaluateReference is Evaluate as it stood before the evaluator
// memoized group scores: it rescores every group on every flip and
// walks the whole assignment for each failing (flip, group). It is
// the oracle the memoized form must match bit for bit.
func evaluateReference(e *Evaluator, m *Mapping, tasks []Task) Score {
	groupHRs := m.GroupHRs(tasks)

	// Per-group static decisions: safe level from the worst effective
	// HR, aggressive level from Table 1, operating pair per mode.
	type groupState struct {
		occupied int
		level    vf.Level
		pair     vf.Pair
		worstHR  float64
	}
	groups := make([]groupState, m.Cfg.Groups)
	for g := range groups {
		hrs := groupHRs[g]
		if len(hrs) == 0 {
			continue
		}
		gs := &groups[g]
		gs.occupied = len(hrs)
		for _, hr := range hrs {
			if hr > gs.worstHR {
				gs.worstHR = hr
			}
		}
		safe := booster.SafeLevelFor(hrs)
		gs.level = vf.InitialALevel(safe)
		gs.pair = e.table.PairFor(gs.level, e.mode)
	}

	// Operator frequency synchronization: a MacroSet runs at the
	// slowest frequency among the groups hosting its tasks.
	numOps := 0
	for _, t := range tasks {
		if t.OpID+1 > numOps {
			numOps = t.OpID + 1
		}
	}
	opFreq := make([]float64, numOps)
	opTasks := make([]int, numOps)
	for i := range opFreq {
		opFreq[i] = -1
	}
	for macro, ti := range m.Assign {
		if ti == Empty {
			continue
		}
		op := tasks[ti].OpID
		opTasks[op]++
		f := groups[m.Group(macro)].pair.FreqGHz
		if opFreq[op] < 0 || f < opFreq[op] {
			opFreq[op] = f
		}
	}

	// Walk the flip sequence: a group fails a step when the flip
	// intensity times its worst HR exceeds its level's Rtog budget.
	// Each failure stalls every operator with a task in that group by
	// the Fig. 11 two-step recovery.
	opStalls := make([]float64, numOps)
	powerSum := 0.0
	for _, p := range e.flips {
		for g := range groups {
			gs := &groups[g]
			if gs.occupied == 0 {
				continue
			}
			rtog := p * gs.worstHR
			powerSum += float64(gs.occupied) * e.power.MacroPowerMW(gs.pair, rtog)
			if rtog > gs.level.Rtog() {
				for macro, ti := range m.Assign {
					if ti != Empty && m.Group(macro) == g {
						opStalls[tasks[ti].OpID] += 2
					}
				}
			}
		}
	}

	// End-to-end delay: operators run concurrently; the slowest one
	// (normalized by its synchronized frequency) sets completion.
	steps := float64(len(e.flips))
	var sc Score
	totalThroughput := 0.0
	totalTasks := 0
	for op := 0; op < numOps; op++ {
		if opTasks[op] == 0 {
			continue
		}
		f := opFreq[op]
		if f <= 0 {
			f = vf.NominalFreqGHz
		}
		stallPerTask := opStalls[op] / float64(opTasks[op])
		delay := (steps + stallPerTask) / f
		if delay > sc.DelaySteps {
			sc.DelaySteps = delay
		}
		util := steps / (steps + stallPerTask)
		totalThroughput += float64(opTasks[op]) * f * util
		totalTasks += opTasks[op]
	}
	if totalTasks > 0 {
		sc.PowerMW = powerSum / steps
		sc.TOPS = vf.ChipTOPS(totalThroughput/float64(totalTasks), 1.0)
	}
	return sc
}

// oracleTaskSets are the task mixes the oracle tests score: the Fig. 21
// two-operator mix, a many-operator mix of weight-stationary and
// input-determined tasks with HRs on and between the 5% level
// boundaries, a full chip, and three tasks (most groups empty).
func oracleTaskSets() map[string][]Task {
	cfg := pim.DefaultConfig()
	g := xrand.New(3)
	var many []Task
	for op := 0; op < 9; op++ {
		n := 1 + g.Intn(7)
		id := op%3 == 2
		for i := 0; i < n; i++ {
			hr := []float64{0, 0.2, 0.27, 0.35, 0.4 + 0.2*g.Float64(), 0.6, 0.61}[g.Intn(7)]
			if id {
				hr = 0.55
			}
			many = append(many, Task{Op: fmt.Sprintf("op%d", op), OpID: op, HR: hr, InputDetermined: id})
		}
	}
	var full []Task
	for i := 0; i < cfg.Macros(); i++ {
		full = append(full, Task{Op: "f", OpID: i % 5, HR: 0.05 + 0.9*g.Float64(), InputDetermined: i%11 == 0})
	}
	return map[string][]Task{
		"conv+qkt": mixedTasks(20, 12),
		"many-ops": many,
		"full":     full,
		"sparse": {
			{Op: "x", OpID: 0, HR: 0.33},
			{Op: "y", OpID: 1, HR: 0.18},
			{Op: "z", OpID: 2, InputDetermined: true, HR: 0.55},
		},
	}
}

// TestEvaluateMatchesReference: the memoized evaluator must return the
// reference score exactly (==, no tolerance) for the sequential, zigzag
// and random mappings and along 200-step chains of cross-group swaps,
// in both modes. One evaluator per mode serves every task set and
// mapping, so later calls hit cache entries earlier ones filled.
func TestEvaluateMatchesReference(t *testing.T) {
	cfg := pim.DefaultConfig()
	sets := oracleTaskSets()
	for _, mode := range []vf.Mode{vf.LowPower, vf.Sprint} {
		e := newEval(mode, 5)
		for _, name := range []string{"conv+qkt", "many-ops", "full", "sparse"} {
			tasks := sets[name]
			starts := map[string]*Mapping{
				"sequential": Sequential(tasks, cfg),
				"zigzag":     Zigzag(tasks, cfg),
				"random":     Random(tasks, cfg, xrand.New(int64(len(tasks)))),
			}
			for _, start := range []string{"sequential", "zigzag", "random"} {
				m := starts[start]
				rng := xrand.New(int64(len(tasks)) + 100)
				for step := 0; step <= 200; step++ {
					if step > 0 {
						swapAcrossGroups(m, rng) // a failed swap rescores m unchanged
					}
					got, want := e.Evaluate(m, tasks), evaluateReference(e, m, tasks)
					if got != want {
						t.Fatalf("%v/%s/%s step %d: Evaluate = %+v, reference %+v", mode, name, start, step, got, want)
					}
				}
			}
		}
	}
}
