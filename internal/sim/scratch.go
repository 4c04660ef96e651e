package sim

import (
	"sync"

	"aim/internal/irdrop"
	"aim/internal/mapping"
	"aim/internal/pdn"
	"aim/internal/pim"
	"aim/internal/stream"
	"aim/internal/xrand"
)

// WarmState pools waveScratch instances across Run calls — the warm
// simulator state a serving runtime keeps between requests so repeated
// executions stop re-growing the packed banks, toggle buffers and RNG
// state from zero. It is safe for concurrent use: each chunk worker
// checks a scratch out for the duration of its chunk and returns it
// when done. Reuse never changes an RNG draw, so results are
// bit-identical with or without a WarmState (TestWarmStateMatchesSerial).
type WarmState struct {
	mu   sync.Mutex
	free []*waveScratch
}

// NewWarmState returns an empty pool.
func NewWarmState() *WarmState { return &WarmState{} }

// get checks a scratch out of the pool (nil WarmState allocates).
func (w *WarmState) get() *waveScratch {
	if w == nil {
		return &waveScratch{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return &waveScratch{}
}

// put returns a scratch to the pool.
func (w *WarmState) put(s *waveScratch) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.free = append(w.free, s)
	w.mu.Unlock()
}

// waveScratch holds the per-shard buffers the wave executor reuses
// across the waves of its chunk: the synthetic packed banks, their
// construction buffer, and the per-group toggle words. All of it is
// state the PackedToggles engine rebuilds per wave — rebuilding into
// reused storage draws the identical RNG sequence and produces the
// identical bits, it just stops feeding the garbage collector (~half
// the simulator's allocations were these banks).
//
// A waveScratch belongs to one chunk of one Run at a time. A fresh
// one (&waveScratch{}) allocates each buffer on first use.
type waveScratch struct {
	banks  []*pim.Bank
	bankN  int
	words  [][]uint64
	wordN  int
	codes  []int32
	bits   []uint64
	toggle []*groupToggles
	togN   int
	rng    *xrand.RNG
	// Per-wave working slices of runWave, reused by capacity.
	groups   []*groupRun
	engines  []*groupToggles
	taskHRs  []float64
	opInts   [][]int
	opInt64s [][]int64
	opFloats [][]float64
	opIntN   int
	opInt64N int
	opFloatN int
	// spatial is the shard's SpatialPDN estimator session: its
	// scratch and, on a die too large for the response table, the
	// warm-started multigrid hierarchy and injection buffers, all of
	// which would otherwise be rebuilt per wave. The session is Reset
	// at every wave boundary, so pooling it never changes a solved
	// bit — it only skips the construction.
	spatial *irdrop.Spatial
}

// pooledSlice returns a zeroed slice of length n from a high-water
// pool: entry *hw is reused when its capacity suffices, else replaced.
func pooledSlice[T int | int64 | uint64 | float64](pool *[][]T, hw *int, n int) []T {
	if *hw < len(*pool) && cap((*pool)[*hw]) >= n {
		out := (*pool)[*hw][:n]
		clear(out)
		*hw++
		return out
	}
	out := make([]T, n)
	if *hw < len(*pool) {
		(*pool)[*hw] = out
	} else {
		*pool = append(*pool, out)
	}
	*hw++
	return out
}

// intSlice, int64Slice and floatSlice are the typed pool accessors
// runWave draws its per-wave working slices from.
func (s *waveScratch) intSlice(n int) []int {
	return pooledSlice(&s.opInts, &s.opIntN, n)
}

func (s *waveScratch) int64Slice(n int) []int64 {
	return pooledSlice(&s.opInt64s, &s.opInt64N, n)
}

func (s *waveScratch) floatSlice(n int) []float64 {
	return pooledSlice(&s.opFloats, &s.opFloatN, n)
}

// groupSlices returns zeroed groups/engines slices of length n.
func (s *waveScratch) groupSlices(n int) ([]*groupRun, []*groupToggles) {
	if cap(s.groups) < n {
		s.groups = make([]*groupRun, n)
		s.engines = make([]*groupToggles, n)
	}
	g := s.groups[:n]
	e := s.engines[:n]
	for i := range g {
		g[i] = nil
		e[i] = nil
	}
	return g, e
}

// taskHRBuf returns a length-n buffer for per-group task HRs (read
// within newGroupToggles only, so one buffer serves every group).
func (s *waveScratch) taskHRBuf(n int) []float64 {
	if cap(s.taskHRs) < n {
		s.taskHRs = make([]float64, n)
	}
	return s.taskHRs[:n]
}

// shardRNG returns the wave's shard stream, reseeding the worker's
// pooled generator in place (its 4.9 KB buffer is the single biggest
// per-wave allocation after the banks). Draw sequences are
// identical to a fresh NewShard.
func (s *waveScratch) shardRNG(seed int64, name string, shard int) *xrand.RNG {
	if s.rng == nil {
		s.rng = xrand.NewShard(seed, name, shard)
	} else {
		s.rng.ReseedShard(seed, name, shard)
	}
	return s.rng
}

// nextWave resets the high-water marks; the underlying storage stays.
func (s *waveScratch) nextWave() {
	s.bankN, s.wordN, s.togN = 0, 0, 0
	s.opIntN, s.opInt64N, s.opFloatN = 0, 0, 0
}

// spatialEstimator returns the shard's SpatialPDN session, building it
// on first use (or when the chip geometry changed).
func (s *waveScratch) spatialEstimator(cfg pim.Config) *irdrop.Spatial {
	if s.spatial == nil || s.spatial.Groups() != cfg.Groups {
		s.spatial = newSpatialEstimator(cfg)
	}
	return s.spatial
}

// newSpatialEstimator places the chip's groups on the smallest die
// that holds them (mapping.NewPlacement) and wraps the placement in an
// estimator session with the calibrated current densities.
func newSpatialEstimator(cfg pim.Config) *irdrop.Spatial {
	pl := mapping.NewPlacement(cfg)
	return irdrop.NewSpatial(pl.Floorplan(), pl.TileIndices(), pdn.DefaultActivity())
}

// bank pools pim.Bank construction.
func (s *waveScratch) bank(codes []int32, cells, bits int) *pim.Bank {
	if s.bankN < len(s.banks) {
		b := pim.LoadBank(s.banks[s.bankN], codes, cells, bits)
		s.banks[s.bankN] = b
		s.bankN++
		return b
	}
	b := pim.NewBank(codes, cells, bits)
	s.banks = append(s.banks, b)
	s.bankN++
	return b
}

// wordBuf pools the packed toggle-line buffers.
func (s *waveScratch) wordBuf(n int) []uint64 {
	return pooledSlice(&s.words, &s.wordN, stream.Words(n))
}

// codeBuf returns the shared weight-code staging buffer (NewBank and
// LoadBank copy out of it, so one buffer serves every task).
func (s *waveScratch) codeBuf(n int) []int32 {
	if cap(s.codes) < n {
		s.codes = make([]int32, n)
	}
	return s.codes[:n]
}

// codeBits returns the buffer drawCodes fills with n weight bits
// (sliced into codes before the next task draws, so one buffer serves
// every task).
func (s *waveScratch) codeBits(n int) []uint64 {
	words := stream.Words(n)
	if cap(s.bits) < words {
		s.bits = make([]uint64, words)
	}
	return s.bits[:words]
}

// toggles pools the per-group engine structs, keeping each one's bank
// list capacity across waves.
func (s *waveScratch) toggles() *groupToggles {
	if s.togN < len(s.toggle) {
		gt := s.toggle[s.togN]
		*gt = groupToggles{banks: gt.banks[:0]}
		s.togN++
		return gt
	}
	gt := &groupToggles{}
	s.toggle = append(s.toggle, gt)
	s.togN++
	return gt
}
