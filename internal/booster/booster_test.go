package booster

import (
	"testing"
	"testing/quick"

	"aim/internal/vf"
	"aim/internal/xrand"
)

func TestNewAdjusterStartsAtTable1(t *testing.T) {
	a := NewLevelAdjuster(50, 50)
	if a.Level() != 35 || a.ALevel() != 35 {
		t.Errorf("level=%v alevel=%v, want 35/35 per Table 1", a.Level(), a.ALevel())
	}
}

func TestNewAdjusterValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLevelAdjuster(vf.Level(23), 50) },
		func() { NewLevelAdjuster(50, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFailureSnapsToSafeLevel(t *testing.T) {
	// DESIGN.md invariant 5: after an IRFailure the group runs at the
	// safe level on the next cycle.
	a := NewLevelAdjuster(50, 50)
	if got := a.Step(true, false, 0); got != 50 {
		t.Errorf("level after failure = %v, want safe 50", got)
	}
}

func TestEarlyFailureDemotesALevel(t *testing.T) {
	a := NewLevelAdjuster(50, 50)
	// Run clean past the 0.2β window, then fail once (no demotion),
	// then fail again within 0.2β=10 cycles ("too soon": demotion).
	for i := 0; i < 15; i++ {
		a.Step(false, false, 0)
	}
	a.Step(true, false, 0)
	if a.Demotions() != 0 {
		t.Fatalf("late failure should not demote, got %d", a.Demotions())
	}
	for i := 0; i < 5; i++ {
		a.Step(false, false, 0)
	}
	a.Step(true, false, 0)
	if a.ALevel() != 40 {
		t.Errorf("a-level = %v, want demoted to 40", a.ALevel())
	}
	if a.Demotions() != 1 {
		t.Errorf("demotions = %d", a.Demotions())
	}
}

func TestLateFailureKeepsALevel(t *testing.T) {
	a := NewLevelAdjuster(50, 50)
	for i := 0; i < 30; i++ { // > 0.2β failure-free cycles
		a.Step(false, false, 0)
	}
	a.Step(true, false, 0)
	if a.ALevel() != 35 {
		t.Errorf("a-level = %v, want unchanged 35", a.ALevel())
	}
}

func TestBackToALevelAfterBeta(t *testing.T) {
	a := NewLevelAdjuster(50, 50)
	a.Step(true, false, 0) // go to safe
	var lvl vf.Level
	for i := 0; i < 49; i++ {
		lvl = a.Step(false, false, 0)
		if i < 48 && lvl != 50 {
			t.Fatalf("level left safe too early at cycle %d: %v", i, lvl)
		}
	}
	lvl = a.Step(false, false, 0) // SafeCounter reaches β
	if lvl != a.ALevel() {
		t.Errorf("level = %v, want back to a-level %v", lvl, a.ALevel())
	}
}

func TestPromotionAfterTwoBeta(t *testing.T) {
	a := NewLevelAdjuster(50, 20)
	start := a.ALevel()
	for i := 0; i <= 2*20; i++ {
		a.Step(false, false, 0)
	}
	if a.ALevel() != start.Up() {
		t.Errorf("a-level = %v, want promoted to %v", a.ALevel(), start.Up())
	}
	if a.Promotions() != 1 {
		t.Errorf("promotions = %d", a.Promotions())
	}
	// Counter resets to β, so the next promotion takes another β+1.
	for i := 0; i <= 20; i++ {
		a.Step(false, false, 0)
	}
	if a.ALevel() != start.Up().Up() {
		t.Errorf("second promotion missing: %v", a.ALevel())
	}
}

func TestPromotionSaturatesAt20(t *testing.T) {
	a := NewLevelAdjuster(25, 5)
	for i := 0; i < 500; i++ {
		a.Step(false, false, 0)
	}
	if a.ALevel() != 20 {
		t.Errorf("a-level = %v, want saturated at 20", a.ALevel())
	}
}

func TestDemotionSaturatesAtSafe(t *testing.T) {
	a := NewLevelAdjuster(30, 50)
	for i := 0; i < 20; i++ {
		a.Step(true, false, 0) // hammer failures
	}
	if a.ALevel() > 30 {
		t.Errorf("a-level = %v demoted beyond safe 30", a.ALevel())
	}
	if a.Level() != 30 {
		t.Errorf("level = %v, want safe", a.Level())
	}
}

func TestFrequencySync(t *testing.T) {
	a := NewLevelAdjuster(50, 50)
	got := a.Step(false, true, 45)
	if got != 45 {
		t.Errorf("freq sync level = %v, want 45", got)
	}
}

// Property: the in-force level never exceeds the safe level's
// pessimism bound... more precisely the level is always one of
// {safe, a-level, synced level}, and a-level never exceeds safe.
func TestAdjusterInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		safe := vf.Levels()[g.Intn(10)]
		a := NewLevelAdjuster(safe, 10+g.Intn(80))
		for i := 0; i < 400; i++ {
			fail := g.Bernoulli(0.08)
			lvl := a.Step(fail, false, 0)
			if !lvl.Valid() || !a.ALevel().Valid() {
				return false
			}
			if a.ALevel() > safe {
				return false
			}
			if fail && lvl != safe {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSafeLevelFor(t *testing.T) {
	if got := SafeLevelFor([]float64{0.31, 0.475, 0.22}); got != 50 {
		t.Errorf("safe level = %v, want 50 (worst HR 47.5%%)", got)
	}
	if got := SafeLevelFor([]float64{0.7}); got != vf.DVFSLevel {
		t.Errorf("HR>60%% must revert to DVFS, got %v", got)
	}
}
