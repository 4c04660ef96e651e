// Package irdrop provides the architecture-level IR-drop model of the
// paper's Eq. 2 — static drop plus a dynamic term linear in Rtog — and
// the on-die voltage monitoring hardware (the VCO-based IR monitor of
// §5.5.2) that raises IRFailure signals for IR-Booster.
//
// The linear model is the fast path used inside the runtime simulator;
// its coefficients are calibrated against the internal/pdn mesh solver
// so the sign-off worst case matches the chip's reported 140 mV at
// Vdd = 0.75 V, and TestModelMatchesPDN keeps the two in agreement.
package irdrop

import (
	"aim/internal/pim"
	"aim/internal/xrand"
)

// Model evaluates Eq. 2 with the bank treated as a region of stable
// equivalent resistance (§4.1):
//
//	IR-drop ≈ ΔVstatic + (k_sc·I_sc·R_sc + k_sw·I_sw·R_sw)·Rtog
//
// collapsing the bracketed dynamic product into DynCoeffMV.
type Model struct {
	// StaticMV is ΔVstatic: the leakage-driven drop, in millivolts.
	StaticMV float64
	// DynCoeffMV is the dynamic drop at Rtog = 100%, in millivolts.
	DynCoeffMV float64
	// NoiseMV is the cycle-to-cycle drop variation around the linear
	// model: placement, neighbouring-region coupling and waveform
	// effects the architecture-level view abstracts away.
	NoiseMV float64
}

// DPIMModel is calibrated for the 7nm 256-TOPS digital PIM chip: the
// sign-off worst case (Rtog=1) sits at 140 mV. Its noise term yields
// the paper's Rtog↔IR-drop correlation of r ≈ 0.977 (Fig. 4).
func DPIMModel() Model {
	return Model{StaticMV: 10, DynCoeffMV: 130, NoiseMV: 2.5}
}

// APIMModel is calibrated for the 28nm 128×32 analog PIM macro of §7:
// a larger static share makes its relative mitigation saturate near
// 50%, and its tighter analog current behaviour gives r ≈ 0.998.
func APIMModel() Model {
	return Model{StaticMV: 42, DynCoeffMV: 110, NoiseMV: 0.8}
}

// ModelFor maps a macro family to its calibrated IR-drop model.
func ModelFor(k pim.MacroKind) Model {
	if k == pim.APIM {
		return APIMModel()
	}
	return DPIMModel()
}

// DropEstimator is the pluggable drop-estimation layer between the
// simulator's activity engines and its monitor/booster machinery: one
// cycle's per-group activity in, per-group deterministic drops out.
//
// act[g] is group g's worst Rtog in [0,1], or negative when the group
// is idle this cycle; drop[g] receives the estimated drop in
// millivolts (idle groups get 0). Implementations may carry state
// between cycles — the spatial estimator keeps its held field and, on
// large dies, a warm-started PDN solver session — and are therefore
// NOT safe for concurrent use: give each simulation shard its own
// instance.
type DropEstimator interface {
	EstimateGroups(act, drop []float64)
}

// EstimateGroups implements DropEstimator: the analytic Eq. 2 model
// applied to every group independently — each bank is a region of
// stable equivalent resistance, blind to its neighbours. This is the
// simulator's default tier, bit-identical to the historical per-group
// Estimate calls it replaces.
func (m Model) EstimateGroups(act, drop []float64) {
	for g, a := range act {
		if a < 0 {
			drop[g] = 0
			continue
		}
		drop[g] = m.Estimate(a)
	}
}

// Estimate returns the expected IR-drop in millivolts at the given
// Rtog (or HR upper bound) in [0,1].
func (m Model) Estimate(rtog float64) float64 {
	if rtog < 0 || rtog > 1 {
		panic("irdrop: Rtog outside [0,1]")
	}
	return m.StaticMV + m.DynCoeffMV*rtog
}

// EstimateNoisy adds the cycle-level variation term.
func (m Model) EstimateNoisy(rtog float64, rng *xrand.RNG) float64 {
	v := m.Estimate(rtog) + rng.Normal(0, m.NoiseMV)
	if v < 0 {
		v = 0
	}
	return v
}

// SignoffWorstMV is the worst-case drop the chip is signed off for.
func (m Model) SignoffWorstMV() float64 { return m.Estimate(1) }

// Mitigation returns the relative IR-drop reduction of running at
// `rtog` instead of the sign-off worst case — the headline metric of
// §6.6.
func (m Model) Mitigation(rtog float64) float64 {
	return 1 - m.Estimate(rtog)/m.SignoffWorstMV()
}
