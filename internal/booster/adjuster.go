// Package booster implements IR-Booster's per-group state (paper
// §5.5): the level adjustment state machine of Algorithm 2, driven by
// software-derived safe levels (from HR) and hardware IRFailure
// signals. The chip-level wiring — monitors, frequency sync and the
// Fig. 11 MacroSet stall/recompute pipeline — lives in sim's effects
// pass (internal/sim/wave.go), the one place the experiments run it.
package booster

import (
	"fmt"

	"aim/internal/vf"
)

// LevelAdjuster is Algorithm 2 for one Macro Group.
//
// The group starts at the profiling-derived aggressive level (Table 1).
// IRFailures snap it back to the safe level; failures arriving too soon
// after the previous one (< 0.2β cycles) demote the aggressive level.
// After β failure-free cycles the group returns to its aggressive
// level, and after a further β cycles the aggressive level is promoted
// one step, unlocking more performance or power savings.
type LevelAdjuster struct {
	// Safe is the software-guided safe level from HR (§5.5.1).
	Safe vf.Level
	// Beta is the stability horizon β (cycles).
	Beta int

	aLevel      vf.Level
	level       vf.Level
	safeCounter int

	// Telemetry.
	demotions  int
	promotions int
}

// NewLevelAdjuster initializes Algorithm 2 lines 1-2: the a-level comes
// from Table 1 and the group starts at it.
func NewLevelAdjuster(safe vf.Level, beta int) *LevelAdjuster {
	if !safe.Valid() {
		panic(fmt.Sprintf("booster: invalid safe level %d", int(safe)))
	}
	if beta <= 0 {
		panic("booster: beta must be positive")
	}
	a0 := vf.InitialALevel(safe)
	return &LevelAdjuster{Safe: safe, Beta: beta, aLevel: a0, level: a0}
}

// Level returns the level currently in force.
func (a *LevelAdjuster) Level() vf.Level { return a.level }

// ALevel returns the current aggressive level.
func (a *LevelAdjuster) ALevel() vf.Level { return a.aLevel }

// Demotions and Promotions expose a-level movement counts.
func (a *LevelAdjuster) Demotions() int { return a.demotions }

// Promotions returns the number of a-level promotions.
func (a *LevelAdjuster) Promotions() int { return a.promotions }

// Step advances one cycle (Algorithm 2 lines 3-25). irFailure is the
// monitor's signal; freqSync, when true, forces the level to setLevel
// because another macro of the same logical Set changed frequency
// (line 11-13, "Frequency Synchronization").
func (a *LevelAdjuster) Step(irFailure bool, freqSync bool, setLevel vf.Level) vf.Level {
	switch {
	case irFailure:
		a.level = a.Safe              // line 5: set safe level
		if a.safeCounter < a.Beta/5 { // line 6: failure interval < 0.2β
			// Overly aggressive: demote the a-level (lines 7-8), but
			// never below the safe level's own pessimism.
			if a.aLevel != a.Safe {
				down := a.aLevel.Down()
				if down > a.Safe {
					down = a.Safe
				}
				if down != a.aLevel {
					a.aLevel = down
					a.demotions++
				}
			}
		}
		a.safeCounter = 0 // line 10

	case freqSync:
		a.level = setLevel // line 12
		a.safeCounter = 0  // line 13

	default:
		a.safeCounter++ // line 15
		if a.safeCounter == a.Beta {
			a.level = a.aLevel // lines 16-17: back to a-level
		}
		if a.safeCounter > 2*a.Beta { // lines 19-22: a-level up
			up := a.aLevel.Up()
			if up != a.aLevel {
				a.aLevel = up
				a.promotions++
			}
			a.level = a.aLevel
			a.safeCounter = a.Beta
		}
	}
	return a.level
}

// SafeLevelFor derives the software-guided safe level for a macro
// group (§5.5.1): the worst (highest) HR among its macros, rounded up
// to the next 5% level; input-determined operators (unknown HR,
// signalled by hr > 1 sentinel or explicitly) revert to DVFS.
func SafeLevelFor(groupHRs []float64) vf.Level {
	worst := 0.0
	for _, hr := range groupHRs {
		if hr > worst {
			worst = hr
		}
	}
	return vf.LevelForHR(worst)
}
