package mapping

import (
	"math"
)

// SAOptions are the Algorithm 3 parameters; defaults follow §5.6.
type SAOptions struct {
	// Q is the temperature reduction coefficient q.
	Q float64
	// T0 is the initial normalized temperature.
	T0 float64
	// Steps is the iteration limit.
	Steps int
	// RejectLimit ends the search after this many consecutive
	// rejections ("terminates early if ten consecutive attempts are
	// rejected").
	RejectLimit int
}

// DefaultSAOptions returns the paper's configuration: q=0.95, T0=1,
// 500 iterations, early stop after 10 consecutive rejections.
func DefaultSAOptions() SAOptions {
	return SAOptions{Q: 0.95, T0: 1, Steps: 500, RejectLimit: 10}
}

// HRAware runs Algorithm 3: simulated annealing over task↔macro swaps
// with the normalized-exponential acceptor
//
//	accept if ΔS < 0 or Random() < exp(−ΔS / (0.5·S0·T))
//
// starting from the sequential mapping M0. The transition function
// picks two macros from *different groups* and exchanges their
// contents; empty slots participate, which is the paper's "empty
// macro" option that lets one or two macros stay unmapped to isolate
// interfering HR extremes.
func HRAware(tasks []Task, eval *Evaluator, rng Rand, opt SAOptions) (*Mapping, Score) {
	cur := Sequential(tasks, eval.cfg)
	curScore := eval.Evaluate(cur, tasks)
	s0 := math.Abs(curScore.Scalar(eval.mode))
	if s0 == 0 {
		s0 = 1
	}
	best := cur.Clone()
	bestScore := curScore

	temp := opt.T0
	rejects := 0
	for i := 0; i < opt.Steps; i++ {
		temp *= opt.Q
		next := cur.Clone()
		if !swapAcrossGroups(next, rng) {
			break // fewer than two groups: nothing to explore
		}
		nextScore := eval.Evaluate(next, tasks)
		delta := nextScore.Scalar(eval.mode) - curScore.Scalar(eval.mode)
		if delta < 0 || rng.Float64() < math.Exp(-delta/(0.5*s0*temp)) {
			if nextScore.Scalar(eval.mode) < bestScore.Scalar(eval.mode) {
				best = next.Clone()
				bestScore = nextScore
			}
			cur, curScore = next, nextScore
			rejects = 0
		} else {
			rejects++
			if rejects >= opt.RejectLimit {
				break
			}
		}
	}
	return best, bestScore
}

// swapAcrossGroups exchanges the contents of two macros in different
// groups; returns false when the geometry makes that impossible.
func swapAcrossGroups(m *Mapping, rng Rand) bool {
	if m.Cfg.Groups < 2 {
		return false
	}
	n := len(m.Assign)
	for tries := 0; tries < 64; tries++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if m.Group(a) == m.Group(b) {
			continue
		}
		if m.Assign[a] == Empty && m.Assign[b] == Empty {
			continue // no-op swap
		}
		m.Assign[a], m.Assign[b] = m.Assign[b], m.Assign[a]
		return true
	}
	return false
}
