package sim

import (
	"math"
	"testing"

	"aim/internal/compiler"
	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// handTask is one task of a hand-built wave: its operator and HR.
type handTask struct {
	op int
	hr float64
}

// handWave places groups[g]'s tasks on group g's macros, in order.
func handWave(t *testing.T, cfg pim.Config, groups [][]handTask) *compiler.Wave {
	t.Helper()
	w := &compiler.Wave{Map: mapping.NewMapping(cfg), Rounds: 1}
	numOps := 0
	for g, tasks := range groups {
		if len(tasks) > cfg.MacrosPerGroup {
			t.Fatalf("group %d holds %d tasks, has %d macros", g, len(tasks), cfg.MacrosPerGroup)
		}
		for i, ht := range tasks {
			w.Map.Assign[g*cfg.MacrosPerGroup+i] = len(w.Tasks)
			w.Tasks = append(w.Tasks, mapping.Task{OpID: ht.op, HR: ht.hr})
			if ht.op+1 > numOps {
				numOps = ht.op + 1
			}
		}
	}
	w.Plans = make([]*compiler.LayerPlan, numOps)
	return w
}

// The hand-wave tests below pin the live IR-Booster paths of the
// effects pass — Fig. 11 stalls and MacroSet frequency sync — on
// hand-built waves. The drop model has no noise and the flip intensity
// is fixed (σ = 0), so every group's drop is the constant
// Estimate(0.75·HR) and a monitor trips exactly when that exceeds its
// level's sign-off drop. β outlasts the wave, so a group that fails
// stays at its safe level and no level is ever promoted.
//
// With intensity 0.75 the fixtures' HRs behave as follows (Table 1
// start levels, low-power frequencies):
//   - HR 0.60: safe 60%, starts at 40% (0.45 > 0.40, trips at cycle 0),
//     then holds 60% (0.9 GHz);
//   - HR 0.45: safe 45%, starts and holds 35% (0.3375 ≤ 0.35), 0.9 GHz;
//   - HR 0.20: safe 20%, starts and holds 20%, 1.0 GHz.
const handCycles = 20

// opWant is one operator's expected accounting: the level whose
// frequency it runs at every cycle, and its useful cycles.
type opWant struct {
	level  vf.Level
	useful int64
}

// checkHandWave runs groups as one wave and checks its failure count,
// its useful cycles and its task-weighted throughput against ops.
func checkHandWave(t *testing.T, groups [][]handTask, failures int, ops []opWant) {
	t.Helper()
	cfg := pim.Config{Kind: pim.DPIM, Groups: 3, MacrosPerGroup: 2, BanksPerMacro: 1, CellsPerBank: 8, WeightBits: 8}
	m := irdrop.Model{StaticMV: 10, DynCoeffMV: 130}
	table := vf.NewTable(m)
	opt := Options{
		Runtime: Runtime{Beta: 1000}, CyclesPerWave: handCycles, Mode: vf.LowPower,
		UseBooster: true, Aggressive: true,
		ToggleMean: 0.75, ToggleSigma: 0,
	}
	if table.PairFor(20, opt.Mode).FreqGHz == table.PairFor(35, opt.Mode).FreqGHz {
		t.Fatal("fixture needs levels 20% and 35% at different frequencies")
	}

	w := handWave(t, cfg, groups)
	res := runWave(w, cfg, m, table, vf.DefaultPowerModel(), opt, xrand.New(1), false, &waveScratch{})

	if res.failures != failures {
		t.Errorf("failures = %d, want %d", res.failures, failures)
	}
	// The wave's useful count is its slowest op's; the others only
	// show through the task-weighted throughput below.
	wantUseful := int64(handCycles)
	tasks := make([]int, len(ops))
	for _, task := range w.Tasks {
		tasks[task.OpID]++
	}
	weighted, total := 0.0, 0
	for op, want := range ops {
		if want.useful < wantUseful {
			wantUseful = want.useful
		}
		f := table.PairFor(want.level, opt.Mode).FreqGHz
		weighted += float64(tasks[op]) * f * float64(want.useful) / handCycles
		total += tasks[op]
	}
	if res.useful != wantUseful {
		t.Errorf("useful = %d, want %d", res.useful, wantUseful)
	}
	wantTOPS := vf.ChipTOPS(weighted/float64(total), 1.0) * handCycles
	if math.Abs(res.topsSum-wantTOPS) > 1e-9*wantTOPS {
		t.Errorf("throughput sum = %v, want %v", res.topsSum, wantTOPS)
	}
}

// A wave in which no monitor trips is all useful.
func TestRunWaveFailureFree(t *testing.T) {
	checkHandWave(t, [][]handTask{{{0, 0.45}}, {{1, 0.20}}}, 0,
		[]opWant{{35, handCycles}, {20, handCycles}})
}

// Group 0 fails at cycle 0: both of its ops (every task) lose the
// Re + Re' cycles; op 1 on group 1 never stalls.
func TestRunWaveFailureCostsTwoCycles(t *testing.T) {
	checkHandWave(t, [][]handTask{{{0, 0.60}, {2, 0.20}}, {{1, 0.20}}}, 1,
		[]opWant{{60, handCycles - 2}, {20, handCycles}, {60, handCycles - 2}})
}

// An IRFailure on one group stalls the whole MacroSet of every op it
// hosts, including the op's tasks on groups that did not fail.
func TestRunWaveFailurePropagatesToSet(t *testing.T) {
	for _, tc := range []struct {
		name     string
		groups   [][]handTask
		failures int
		ops      []opWant
	}{
		{
			// Op 0 spans failing group 0 and quiet group 1: its
			// tasks on group 1 stall with the set.
			name:     "failure on one host stalls the set",
			groups:   [][]handTask{{{0, 0.60}}, {{0, 0.20}}},
			failures: 1,
			ops:      []opWant{{60, handCycles - 2}},
		},
		{
			// Both hosts of op 0 fail in the same cycle: the
			// recoveries overlap, so the op stalls once, not twice.
			name:     "simultaneous failures in one set stall it once",
			groups:   [][]handTask{{{0, 0.60}}, {{0, 0.60}}},
			failures: 2,
			ops:      []opWant{{60, handCycles - 2}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkHandWave(t, tc.groups, tc.failures, tc.ops)
		})
	}
}

// Op 0 spans a 20% group (1.0 GHz) and a 35% group (0.9 GHz): the set
// runs at the slower one.
func TestRunWaveSetFrequencySync(t *testing.T) {
	checkHandWave(t, [][]handTask{{{0, 0.20}}, {{0, 0.45}}}, 0,
		[]opWant{{35, handCycles}})
}

// A MacroSet hit by failures in consecutive cycles accrues two stall
// cycles per failure until the pending stall reaches the cap.
func TestRecoveryStallCapsPileUp(t *testing.T) {
	pending := 0
	var got []int
	for i := 0; i < 5; i++ {
		pending = recoveryStall(pending)
		got = append(got, pending)
	}
	want := []int{2, 4, 6, 6, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending stall after %d failures = %v, want %v", i+1, got, want)
		}
	}
	if got := recoveryStall(maxRecoveryStall - 1); got != maxRecoveryStall+1 {
		t.Errorf("recoveryStall(%d) = %d, want %d: a failure below the cap still adds both cycles",
			maxRecoveryStall-1, got, maxRecoveryStall+1)
	}
}
