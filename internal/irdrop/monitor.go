package irdrop

// Monitor is the simplified VCO-based IR monitor of §5.5.2 (after Du
// et al. [21]): a free-oscillating inverter loop whose frequency falls
// with supply voltage. The phase is sampled over a short window; if the
// implied supply voltage is below the configured threshold, the monitor
// raises IRFailure toward the IR-Booster (sim's effects pass).
type Monitor struct {
	// VddMV is the nominal supply in millivolts.
	VddMV float64
	// ThresholdMV is the minimum tolerable supply voltage: drops that
	// push the rail below it trigger IRFailure.
	ThresholdMV float64
	// BaseFreqMHz is the VCO frequency at nominal supply.
	BaseFreqMHz float64
	// GainMHzPerMV is the VCO's voltage-to-frequency gain.
	GainMHzPerMV float64
	// failure latches the last sampled state.
	failure bool
}

// NewMonitor builds a monitor that trips when the rail falls below
// vdd − toleredDropMV.
func NewMonitor(vddMV, toleratedDropMV float64) *Monitor {
	return &Monitor{
		VddMV:        vddMV,
		ThresholdMV:  vddMV - toleratedDropMV,
		BaseFreqMHz:  2000,
		GainMHzPerMV: 4.0,
	}
}

// SetToleratedDrop re-arms the monitor for a new V-f level's tolerated
// drop. The IR-Booster (sim's effects pass) does this on every level
// change.
func (m *Monitor) SetToleratedDrop(toleratedDropMV float64) {
	m.ThresholdMV = m.VddMV - toleratedDropMV
}

// OscFreqMHz returns the VCO frequency at the given rail voltage —
// the voltage-to-frequency conversion the real sensor performs.
func (m *Monitor) OscFreqMHz(railMV float64) float64 {
	f := m.BaseFreqMHz - m.GainMHzPerMV*(m.VddMV-railMV)
	if f < 0 {
		f = 0
	}
	return f
}

// Sample observes the rail for one window given the current IR-drop in
// millivolts and returns the IRFailure signal. The detection threshold
// is applied in the frequency domain, as the hardware does: the drop is
// converted to an oscillation count and compared against the count the
// threshold voltage would produce.
func (m *Monitor) Sample(dropMV float64) bool {
	rail := m.VddMV - dropMV
	m.failure = m.OscFreqMHz(rail) < m.OscFreqMHz(m.ThresholdMV)
	return m.failure
}

// Failure returns the latched state of the last sample.
func (m *Monitor) Failure() bool { return m.failure }

// MonitorOverhead reports the area and power cost of the IR monitors
// relative to the whole chip. The paper's synthesis results (§6.10.2)
// put the simplified design below 0.1% area and 0.5% power.
func MonitorOverhead(groups int) (areaFrac, powerFrac float64) {
	// A handful of inverters and a sampling counter per macro group
	// versus a 256-TOPS compute die.
	areaFrac = float64(groups) * 0.00004
	powerFrac = float64(groups) * 0.0002
	return areaFrac, powerFrac
}
