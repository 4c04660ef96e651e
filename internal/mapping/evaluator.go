package mapping

import (
	"aim/internal/booster"
	"aim/internal/irdrop"
	"aim/internal/pim"
	"aim/internal/vf"
	"aim/internal/xrand"
)

// Score is the lightweight simulator's estimate for one mapping.
type Score struct {
	// DelaySteps is the end-to-end delay in evaluation steps (the
	// longest operator completion, including failure stalls, scaled by
	// its frequency).
	DelaySteps float64
	// PowerMW is the chip's average macro-power total.
	PowerMW float64
	// TOPS is the effective throughput estimate.
	TOPS float64
}

// Scalar reduces the score to the objective Algorithm 3 minimizes in
// the given mode: power in low-power mode, negative throughput in
// sprint mode (both delay-aware).
func (s Score) Scalar(mode vf.Mode) float64 {
	if mode == vf.LowPower {
		return s.PowerMW * s.DelaySteps
	}
	return -s.TOPS
}

// Evaluator is the §5.6 mapping evaluation function: "a lightweight
// simulator [that] generates a 100-step input flip sequence sampled
// from a normal distribution, which is then combined with the HR
// values assigned to each macro" to estimate delay and power.
//
// A group's level, operating pair, per-step power and failure count
// depend only on its worst effective HR and its number of occupied
// macros, so the evaluator memoizes them by that pair across calls; a
// swap during simulated annealing changes only two groups. The cache
// and the reused scratch make an Evaluator unsafe for concurrent use:
// give each goroutine its own.
type Evaluator struct {
	cfg   pim.Config
	table *vf.Table
	power vf.PowerModel
	mode  vf.Mode
	// flips is the shared evaluation flip sequence: identical for every
	// candidate mapping so SA comparisons are apples-to-apples.
	flips []float64
	// scores memoizes groupScore by groupKey. It stays valid because
	// table, power, mode and flips never change after NewEvaluator.
	scores map[groupKey]*groupScore

	// groups[g] is group g's score in the last mapping evaluated (nil
	// when it was empty) and keys[g] its key, so a group whose key did
	// not change skips the map lookup.
	groups []*groupScore
	keys   []groupKey

	// Scratch reused by every Evaluate call.
	worst    []float64
	occupied []int
	opFreq   []float64
	opTasks  []int
	opStalls []int
}

// groupKey identifies everything a group's score depends on.
type groupKey struct {
	worstHR  float64
	occupied int
}

// groupScore is one occupied group's contribution over the flip
// sequence.
type groupScore struct {
	// freqGHz is the frequency of the group's operating pair.
	freqGHz float64
	// power[i] is the group's macro power at flip i: occupied macros
	// times the per-macro power at Rtog flips[i]·worstHR.
	power []float64
	// fails counts the flips on which flips[i]·worstHR exceeds the
	// group's level budget.
	fails int
}

// NewEvaluator builds an evaluator with a fresh 100-step flip sequence.
func NewEvaluator(cfg pim.Config, m irdrop.Model, mode vf.Mode, rng *xrand.RNG) *Evaluator {
	e := &Evaluator{
		cfg:    cfg,
		table:  vf.NewTable(m),
		power:  vf.DefaultPowerModel(),
		mode:   mode,
		scores: make(map[groupKey]*groupScore),
	}
	// Per-step flip intensities from a clipped normal distribution —
	// the same process stream.Bernoulli drives full simulations with.
	e.flips = make([]float64, 100)
	for i := range e.flips {
		p := rng.Normal(0.55, 0.18)
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		e.flips[i] = p
	}
	return e
}

// groupScore returns the memoized score of a group with the given
// worst effective HR and occupancy. The safe level comes from the
// worst HR, the aggressive level from Table 1 and the operating pair
// from the mode.
func (e *Evaluator) groupScore(k groupKey) *groupScore {
	if s, ok := e.scores[k]; ok {
		return s
	}
	level := vf.InitialALevel(booster.SafeLevelFor([]float64{k.worstHR}))
	pair := e.table.PairFor(level, e.mode)
	s := &groupScore{freqGHz: pair.FreqGHz, power: make([]float64, len(e.flips))}
	for i, p := range e.flips {
		rtog := p * k.worstHR
		s.power[i] = float64(k.occupied) * e.power.MacroPowerMW(pair, rtog)
		if rtog > level.Rtog() {
			s.fails++
		}
	}
	e.scores[k] = s
	return s
}

// Evaluate scores a mapping (§5.6's Score function).
func (e *Evaluator) Evaluate(m *Mapping, tasks []Task) Score {
	numOps := 0
	for _, t := range tasks {
		if t.OpID+1 > numOps {
			numOps = t.OpID + 1
		}
	}

	// Per-group occupancy and worst effective HR, then each occupied
	// group's memoized score.
	e.worst = reuse(e.worst, m.Cfg.Groups)
	e.occupied = reuse(e.occupied, m.Cfg.Groups)
	if len(e.groups) != m.Cfg.Groups {
		e.groups = make([]*groupScore, m.Cfg.Groups)
		e.keys = make([]groupKey, m.Cfg.Groups)
	}
	for macro, ti := range m.Assign {
		if ti == Empty {
			continue
		}
		g := m.Group(macro)
		e.occupied[g]++
		if hr := tasks[ti].EffectiveHR(); hr > e.worst[g] {
			e.worst[g] = hr
		}
	}
	for g, n := range e.occupied {
		k := groupKey{worstHR: e.worst[g], occupied: n}
		if k == e.keys[g] {
			continue
		}
		e.keys[g], e.groups[g] = k, nil
		if n > 0 {
			e.groups[g] = e.groupScore(k)
		}
	}

	// Operator frequency synchronization: a MacroSet runs at the
	// slowest frequency among the groups hosting its tasks. A group
	// fails a step when the flip intensity times its worst HR exceeds
	// its level's Rtog budget, and each failure stalls every operator
	// with a task in that group by the Fig. 11 two-step recovery.
	// Stalls are integers, so their order of addition does not matter.
	e.opFreq = reuse(e.opFreq, numOps)
	e.opTasks = reuse(e.opTasks, numOps)
	e.opStalls = reuse(e.opStalls, numOps)
	for i := range e.opFreq {
		e.opFreq[i] = -1
	}
	for macro, ti := range m.Assign {
		if ti == Empty {
			continue
		}
		gs := e.groups[m.Group(macro)]
		op := tasks[ti].OpID
		e.opTasks[op]++
		e.opStalls[op] += 2 * gs.fails
		if f := gs.freqGHz; e.opFreq[op] < 0 || f < e.opFreq[op] {
			e.opFreq[op] = f
		}
	}

	// Average power, summed flip-major and group-minor: that order
	// fixes the float sum's rounding, so it must not change.
	powerSum := 0.0
	for i := range e.flips {
		for _, gs := range e.groups {
			if gs != nil {
				powerSum += gs.power[i]
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
		if e.opTasks[op] == 0 {
			continue
		}
		f := e.opFreq[op]
		if f <= 0 {
			f = vf.NominalFreqGHz
		}
		stallPerTask := float64(e.opStalls[op]) / float64(e.opTasks[op])
		delay := (steps + stallPerTask) / f
		if delay > sc.DelaySteps {
			sc.DelaySteps = delay
		}
		util := steps / (steps + stallPerTask)
		totalThroughput += float64(e.opTasks[op]) * f * util
		totalTasks += e.opTasks[op]
	}
	if totalTasks > 0 {
		sc.PowerMW = powerSum / steps
		sc.TOPS = vf.ChipTOPS(totalThroughput/float64(totalTasks), 1.0)
	}
	return sc
}

// reuse returns buf resized to n with every element zeroed, allocating
// only when its capacity is short.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
