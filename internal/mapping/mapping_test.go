package mapping

import (
	"testing"
	"testing/quick"

	"aim/internal/irdrop"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// mixedTasks builds the paper's Fig. 21 style operator mix: a conv
// operator with low (optimized) HR alongside an input-determined QKT
// with unknown HR.
func mixedTasks(nConv, nQKT int) []Task {
	var tasks []Task
	for i := 0; i < nConv; i++ {
		tasks = append(tasks, Task{Op: "conv", OpID: 0, HR: 0.27})
	}
	for i := 0; i < nQKT; i++ {
		tasks = append(tasks, Task{Op: "qkt", OpID: 1, InputDetermined: true})
	}
	return tasks
}

func TestEffectiveHR(t *testing.T) {
	if got := (Task{HR: 0.3}).EffectiveHR(); got != 0.3 {
		t.Errorf("EffectiveHR = %v", got)
	}
	if got := (Task{HR: 0.3, InputDetermined: true}).EffectiveHR(); got != 1.0 {
		t.Errorf("input-determined EffectiveHR = %v, want 1 (DVFS)", got)
	}
}

func TestSequentialValid(t *testing.T) {
	cfg := pim.DefaultConfig()
	tasks := mixedTasks(20, 12)
	m := Sequential(tasks, cfg)
	if err := m.Validate(len(tasks)); err != nil {
		t.Fatal(err)
	}
	if m.Assign[0] != 0 || m.Assign[31] != 31 || m.Assign[32] != Empty {
		t.Error("sequential order wrong")
	}
}

func TestZigzagValidAndDifferent(t *testing.T) {
	cfg := pim.DefaultConfig()
	tasks := mixedTasks(30, 20)
	z := Zigzag(tasks, cfg)
	if err := z.Validate(len(tasks)); err != nil {
		t.Fatal(err)
	}
	s := Sequential(tasks, cfg)
	same := true
	for i := range z.Assign {
		if z.Assign[i] != s.Assign[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("zigzag should differ from sequential on multi-row grids")
	}
}

func TestRandomValid(t *testing.T) {
	cfg := pim.DefaultConfig()
	tasks := mixedTasks(25, 25)
	m := Random(tasks, cfg, xrand.New(1))
	if err := m.Validate(len(tasks)); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityPanic(t *testing.T) {
	cfg := pim.DefaultConfig()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sequential(mixedTasks(60, 60), cfg)
}

func TestGroupHelpers(t *testing.T) {
	cfg := pim.DefaultConfig()
	m := NewMapping(cfg)
	if m.Group(0) != 0 || m.Group(3) != 0 || m.Group(4) != 1 || m.Group(63) != 15 {
		t.Error("group indexing wrong")
	}
	members := m.GroupMembers(2)
	if len(members) != 4 || members[0] != 8 || members[3] != 11 {
		t.Errorf("members = %v", members)
	}
}

func TestValidateCatchesDuplicates(t *testing.T) {
	cfg := pim.DefaultConfig()
	m := NewMapping(cfg)
	m.Assign[0], m.Assign[5] = 0, 0
	if m.Validate(1) == nil {
		t.Error("duplicate assignment must fail validation")
	}
	m2 := NewMapping(cfg)
	if m2.Validate(1) == nil {
		t.Error("missing task must fail validation")
	}
}

func newEval(mode vf.Mode, seed int64) *Evaluator {
	return NewEvaluator(pim.DefaultConfig(), irdrop.DPIMModel(), mode, xrand.New(seed))
}

func TestEvaluatorDeterministicPerInstance(t *testing.T) {
	tasks := mixedTasks(20, 12)
	e := newEval(vf.LowPower, 7)
	m := Sequential(tasks, e.cfg)
	a := e.Evaluate(m, tasks)
	b := e.Evaluate(m, tasks)
	if a != b {
		t.Error("evaluation must be deterministic for a fixed flip sequence")
	}
}

func TestEvaluatorPenalizesMixedGroups(t *testing.T) {
	// Packing a DVFS-bound QKT task into every conv group drags every
	// group to worst-case pessimism; segregating them must score
	// strictly better in both modes.
	cfg := pim.DefaultConfig()
	tasks := mixedTasks(32, 16)
	segregated := NewMapping(cfg)
	for i := 0; i < 32; i++ {
		segregated.Assign[i] = i // conv fills groups 0-7
	}
	for i := 0; i < 16; i++ {
		segregated.Assign[32+i] = 32 + i // qkt fills groups 8-11
	}
	interleaved := NewMapping(cfg)
	// One QKT in each of the first 16 groups, convs packed around them.
	ci, qi := 0, 32
	for g := 0; g < 16; g++ {
		slots := []int{g * 4, g*4 + 1, g*4 + 2, g*4 + 3}
		if qi < 48 {
			interleaved.Assign[slots[0]] = qi
			qi++
		}
		for _, s := range slots[1:] {
			if ci < 32 {
				interleaved.Assign[s] = ci
				ci++
			}
		}
	}
	if err := segregated.Validate(len(tasks)); err != nil {
		t.Fatal(err)
	}
	if err := interleaved.Validate(len(tasks)); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []vf.Mode{vf.LowPower, vf.Sprint} {
		e := newEval(mode, 9)
		segScore := e.Evaluate(segregated, tasks)
		mixScore := e.Evaluate(interleaved, tasks)
		if segScore.Scalar(mode) >= mixScore.Scalar(mode) {
			t.Errorf("%v: segregated (%.4g) should beat interleaved (%.4g)",
				mode, segScore.Scalar(mode), mixScore.Scalar(mode))
		}
	}
}

func TestHRAwareBeatsNaiveMappings(t *testing.T) {
	// Fig. 21: HR-aware mapping dominates sequential/random/zigzag on
	// mixed operator workloads.
	tasks := mixedTasks(32, 16)
	for _, mode := range []vf.Mode{vf.LowPower, vf.Sprint} {
		e := newEval(mode, 11)
		rng := xrand.New(13)
		best, bestScore := HRAware(tasks, e, rng, DefaultSAOptions())
		if err := best.Validate(len(tasks)); err != nil {
			t.Fatal(err)
		}
		seq := e.Evaluate(Sequential(tasks, e.cfg), tasks)
		zig := e.Evaluate(Zigzag(tasks, e.cfg), tasks)
		rnd := e.Evaluate(Random(tasks, e.cfg, xrand.New(17)), tasks)
		for name, sc := range map[string]Score{"sequential": seq, "zigzag": zig, "random": rnd} {
			if bestScore.Scalar(mode) > sc.Scalar(mode) {
				t.Errorf("%v: HR-aware (%.4g) worse than %s (%.4g)",
					mode, bestScore.Scalar(mode), name, sc.Scalar(mode))
			}
		}
	}
}

// Property: SA always returns a valid mapping (invariant 6) regardless
// of task mix.
func TestHRAwareAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		nConv := 1 + g.Intn(40)
		nQKT := g.Intn(20)
		tasks := mixedTasks(nConv, nQKT)
		e := newEval(vf.LowPower, seed)
		opt := DefaultSAOptions()
		opt.Steps = 60
		best, _ := HRAware(tasks, e, g, opt)
		return best.Validate(len(tasks)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDefaultSAOptions(t *testing.T) {
	o := DefaultSAOptions()
	if o.Q != 0.95 || o.T0 != 1 || o.Steps != 500 || o.RejectLimit != 10 {
		t.Errorf("SA defaults %+v do not match §5.6", o)
	}
}

func TestScoreScalarModes(t *testing.T) {
	s := Score{DelaySteps: 100, PowerMW: 50, TOPS: 260}
	if s.Scalar(vf.LowPower) != 5000 {
		t.Errorf("low-power scalar = %v", s.Scalar(vf.LowPower))
	}
	if s.Scalar(vf.Sprint) != -260 {
		t.Errorf("sprint scalar = %v", s.Scalar(vf.Sprint))
	}
}
