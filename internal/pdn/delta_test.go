package pdn

import "testing"

// TestSolveFieldDeltaMatchesSolveField: the incremental path must be
// SolveField bit for bit —
// same fields, same cycle counts — across a warm solve sequence on
// every geometry. This is the identity that lets SolveField delegate to
// SolveFieldDelta without touching any pinned output.
func TestSolveFieldDeltaMatchesSolveField(t *testing.T) {
	for _, tc := range solverGrids {
		ga := NewGrid(tc.w, tc.h, 0.75, tc.gmesh, tc.gpad, tc.pitch)
		gb := NewGrid(tc.w, tc.h, 0.75, tc.gmesh, tc.gpad, tc.pitch)
		ma := NewMultigrid(ga)
		mb := NewMultigrid(gb)
		for step := 0; step < 4; step++ {
			cur := randomCurrent(tc.w*tc.h, int64(11+step), 0.01)
			va, ia := ma.SolveField(cur, 1e-6, 200)
			vb, ib, conv := mb.SolveFieldDelta(cur, 1e-6, 200)
			if ia != ib {
				t.Fatalf("%s step %d: %d cycles vs SolveField's %d", tc.name, step, ib, ia)
			}
			if !conv {
				t.Fatalf("%s step %d: delta path reported saturation at %d cycles", tc.name, step, ib)
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("%s step %d: cell %d differs: %v vs %v", tc.name, step, i, vb[i], va[i])
				}
			}
		}
	}
}

// TestSolveFieldDeltaReportsSaturation: an exhausted iteration budget
// surfaces as converged == false — the signal SolveStats.Saturated
// counts; SolveField's bare cycle count cannot express it.
func TestSolveFieldDeltaReportsSaturation(t *testing.T) {
	g := NewGrid(64, 64, 0.75, 18, 45, 8)
	m := NewMultigrid(g)
	cur := randomCurrent(64*64, 9, 0.01)
	_, cycles, conv := m.SolveFieldDelta(cur, 1e-15, 1)
	if conv {
		t.Fatal("one V-cycle at tol 1e-15 claimed convergence")
	}
	if cycles != 1 {
		t.Fatalf("cycles = %d, want the full budget of 1", cycles)
	}
}
