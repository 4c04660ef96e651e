package pim

import (
	"math"
	"testing"
	"testing/quick"

	"aim/internal/fxp"
	"aim/internal/stream"
	"aim/internal/xrand"
)

func randCodes(seed int64, n int) []int32 {
	g := xrand.New(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(g.Intn(255) - 127)
	}
	return out
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Macros() != 64 {
		t.Errorf("macros = %d, want 64 (16 groups x 4)", c.Macros())
	}
	if c.WeightsPerMacro() != 64*128 {
		t.Errorf("weights per macro = %d", c.WeightsPerMacro())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Groups: 0, MacrosPerGroup: 1, BanksPerMacro: 1, CellsPerBank: 1, WeightBits: 8},
		{Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 1, CellsPerBank: 1, WeightBits: 1},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestBankHRMatchesFxp(t *testing.T) {
	codes := randCodes(1, 128)
	b := NewBank(codes, 128, 8)
	if got, want := b.HR(), fxp.HR(codes, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("bank HR = %v, want %v", got, want)
	}
}

func TestBankPartialFillHoldsZeros(t *testing.T) {
	codes := randCodes(2, 40)
	b := NewBank(codes, 128, 8)
	// HM over 128 cells equals HM over the 40 loaded codes.
	if got, want := b.HR()*128*8, float64(fxp.HM(codes, 8)); math.Abs(got-want) > 1e-9 {
		t.Errorf("partial bank HM = %v, want %v", got, want)
	}
}

func TestRtogCycleWorstCaseEqualsHR(t *testing.T) {
	codes := randCodes(3, 128)
	b := NewBank(codes, 128, 8)
	all := make([]uint64, stream.Words(128))
	for i := range all {
		all[i] = ^uint64(0)
	}
	if got, want := b.RtogCycle(all), b.HR(); math.Abs(got-want) > 1e-12 {
		t.Errorf("worst-case Rtog = %v, want HR %v", got, want)
	}
	none := make([]uint64, stream.Words(128))
	if got := b.RtogCycle(none); got != 0 {
		t.Errorf("no-toggle Rtog = %v, want 0", got)
	}
}

// DESIGN.md invariant 1: sup(Rtog) = HR for any weights and stream.
func TestRtogNeverExceedsHRProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		codes := randCodes(seed, 64)
		b := NewBank(codes, 64, 8)
		hr := b.HR()
		src := stream.NewBernoulli(64, 50, 0.5, 0.3, g)
		dst := make([]uint64, stream.Words(64))
		for src.NextToggles(dst) {
			if b.RtogCycle(dst) > hr+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBankRtogPackedMatchesBytes proves the word-wise AND+popcount
// path is bit-identical to the legacy byte walk for arbitrary weights
// and toggle vectors, including ragged (non-multiple-of-64) widths and
// partially filled banks.
func TestBankRtogPackedMatchesBytes(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		cells := 33 + int(g.Intn(160))
		loaded := int(g.Intn(cells + 1))
		b := NewBank(randCodes(seed, loaded), cells, 8)
		src := stream.NewBernoulli(cells, 10, 0.5, 0.3, g)
		dst := make([]uint64, stream.Words(cells))
		for src.NextToggles(dst) {
			packed := b.RtogCycle(dst)
			legacy := b.RtogCycleBytes(stream.Unpack(dst, cells))
			if packed != legacy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMacroRtogPackedMatchesBytes: the macro's bit-sliced Hamming
// planes produce the exact same float64 Rtog series as the legacy
// per-bank byte walk — the equivalence guarantee of the packed
// refactor.
func TestMacroRtogPackedMatchesBytes(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		cfg := Config{Kind: DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 1 + int(g.Intn(8)), CellsPerBank: 65 + int(g.Intn(80)), WeightBits: 8}
		loaded := int(g.Intn(cfg.WeightsPerMacro() + 1))
		m := NewMacro(cfg, randCodes(seed, loaded))
		src := stream.NewBernoulli(cfg.CellsPerBank, 10, 0.5, 0.3, g)
		dst := make([]uint64, stream.Words(cfg.CellsPerBank))
		for src.NextToggles(dst) {
			if m.RtogCycle(dst) != m.RtogCycleBytes(stream.Unpack(dst, cfg.CellsPerBank)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBankBitPlanes: plane i bit k mirrors fxp.Bit(weight k, i).
func TestBankBitPlanes(t *testing.T) {
	codes := randCodes(9, 70)
	b := NewBank(codes, 70, 8)
	for i := 0; i < 8; i++ {
		plane := stream.Unpack(b.BitPlane(i), 70)
		for k, w := range codes {
			if want := uint8(fxp.Bit(w, i, 8)); plane[k] != want {
				t.Fatalf("plane %d cell %d = %d, want %d", i, k, plane[k], want)
			}
		}
		for k := len(codes); k < 70; k++ {
			if plane[k] != 0 {
				t.Fatalf("plane %d unloaded cell %d must be 0", i, k)
			}
		}
	}
}

func TestDotSerialMatchesDirectProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := xrand.New(seed)
		codes := randCodes(seed+1000, 32)
		b := NewBank(codes, 32, 8)
		input := make([]int32, 32)
		for i := range input {
			input[i] = int32(g.Intn(255) - 127)
		}
		return b.DotSerial(input, 8) == b.DotDirect(input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMacroLoading(t *testing.T) {
	cfg := Config{Kind: DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 4, CellsPerBank: 8, WeightBits: 8}
	codes := randCodes(4, 20) // 2.5 banks worth
	m := NewMacro(cfg, codes)
	if len(m.Banks()) != 4 {
		t.Fatalf("banks = %d, want 4", len(m.Banks()))
	}
	if got, want := m.HR()*float64(4*8*8), float64(fxp.HM(codes, 8)); math.Abs(got-want) > 1e-9 {
		t.Errorf("macro HM = %v, want %v", got, want)
	}
}

func TestMacroOverCapacityPanics(t *testing.T) {
	cfg := Config{Kind: DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 2, CellsPerBank: 4, WeightBits: 8}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMacro(cfg, randCodes(5, 9))
}

func TestMacroRtogTrace(t *testing.T) {
	cfg := Config{Kind: DPIM, Groups: 1, MacrosPerGroup: 1, BanksPerMacro: 2, CellsPerBank: 16, WeightBits: 8}
	m := NewMacro(cfg, randCodes(6, 32))
	g := xrand.New(7)
	trace := m.RtogTrace(stream.NewBernoulli(16, 100, 0.4, 0.1, g), 0)
	if len(trace) != 100 {
		t.Fatalf("trace length = %d, want 100", len(trace))
	}
	hr := m.HR()
	for i, r := range trace {
		if r < 0 || r > hr+1e-12 {
			t.Fatalf("trace[%d] = %v outside [0, HR=%v]", i, r, hr)
		}
	}
	capped := m.RtogTrace(stream.NewBernoulli(16, 100, 0.4, 0.1, xrand.New(7)), 10)
	if len(capped) != 10 {
		t.Errorf("maxCycles cap ignored: %d", len(capped))
	}
}

func TestShiftCompensatorPipeline(t *testing.T) {
	sc := NewShiftCompensator(8)
	if sc.Delta() != 8 {
		t.Fatalf("delta = %d", sc.Delta())
	}
	if _, ok := sc.Step(10); ok {
		t.Error("first step should be unprimed")
	}
	corr, ok := sc.Step(20)
	if !ok || corr != -80 {
		t.Errorf("second step = %d,%v want -80,true (correction of first sum)", corr, ok)
	}
	corr, _ = sc.Step(0)
	if corr != -160 {
		t.Errorf("third step = %d, want -160", corr)
	}
}

func TestShiftCompensatorMatchesArithmetic(t *testing.T) {
	sc := NewShiftCompensator(16)
	for _, sum := range []int64{0, 1, -5, 1000, -123456} {
		if got, want := sc.CorrectionFor(sum), -sum*16; got != want {
			t.Errorf("CorrectionFor(%d) = %d, want %d", sum, got, want)
		}
	}
}

func TestShiftCompensatorRejectsNonPow2(t *testing.T) {
	for _, d := range []int{0, -8, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for delta %d", d)
				}
			}()
			NewShiftCompensator(d)
		}()
	}
}

func TestSCOverheadWithinPaperBounds(t *testing.T) {
	area, power := SCOverhead(DefaultConfig())
	if area <= 0 || area > 0.002 {
		t.Errorf("SC area fraction = %v, want (0, 0.2%%]", area)
	}
	if power <= 0 || power > 0.01 {
		t.Errorf("SC power fraction = %v, want (0, 1%%]", power)
	}
}

func TestMacroKindString(t *testing.T) {
	if DPIM.String() != "DPIM" || APIM.String() != "APIM" {
		t.Error("kind names wrong")
	}
}
