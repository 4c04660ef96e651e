package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// pinSeeds spans the seed folding of math/rand's Seed: zero (its
// substitute seed), both signs, the int32 modulus and 64-bit seeds.
var pinSeeds = []int64{0, 1, -1, 2147483647, 1 << 40, -1 << 62}

// TestMatchesMathRand pins xrand's generator to math/rand itself: for
// each seed, 100k interleaved draws through every helper must equal
// the same calls on rand.New(rand.NewSource(seed)), crossing many
// 607-word refills at varying block offsets.
func TestMatchesMathRand(t *testing.T) {
	for _, seed := range pinSeeds {
		g, ref := New(seed), rand.New(rand.NewSource(seed))
		bits := make([]uint64, 3)
		for i := 0; i < 100000; i++ {
			switch i % 11 {
			case 0:
				if a, b := g.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, a, b)
				}
			case 1:
				if a, b := g.Intn(1000), ref.Intn(1000); a != b {
					t.Fatalf("seed %d draw %d: Intn %d, math/rand %d", seed, i, a, b)
				}
			case 2:
				if a, b := g.Float64(), ref.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, a, b)
				}
			case 3:
				if a, b := g.Normal(1, 2), 1+2*ref.NormFloat64(); a != b {
					t.Fatalf("seed %d draw %d: Normal %v, math/rand %v", seed, i, a, b)
				}
			case 4:
				u := ref.Float64() - 0.5
				want := -math.Log(1 - 2*u)
				if u < 0 {
					want = math.Log(1 + 2*u)
				}
				if a := g.Laplace(0, 1); a != want {
					t.Fatalf("seed %d draw %d: Laplace %v, math/rand %v", seed, i, a, want)
				}
			case 5:
				if a, b := g.Exp(2), ref.ExpFloat64()/2; a != b {
					t.Fatalf("seed %d draw %d: Exp %v, math/rand %v", seed, i, a, b)
				}
			case 6:
				a, b := g.Perm(7), ref.Perm(7)
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("seed %d draw %d: Perm %v, math/rand %v", seed, i, a, b)
					}
				}
			case 7:
				a, b := []int{0, 1, 2, 3, 4}, []int{0, 1, 2, 3, 4}
				g.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
				ref.Shuffle(len(b), func(x, y int) { b[x], b[y] = b[y], b[x] })
				for k := range a {
					if a[k] != b[k] {
						t.Fatalf("seed %d draw %d: Shuffle %v, math/rand %v", seed, i, a, b)
					}
				}
			case 8:
				if a, b := g.Bernoulli(0.3), ref.Float64() < 0.3; a != b {
					t.Fatalf("seed %d draw %d: Bernoulli %v, math/rand %v", seed, i, a, b)
				}
			case 9:
				n := 1 + i%150
				p := float64(i%13) / 12
				g.FillBernoulli(bits, n, p)
				for k := 0; k < n; k++ {
					if got, want := bits[k/64]>>uint(k%64)&1 == 1, ref.Float64() < p; got != want {
						t.Fatalf("seed %d draw %d: FillBernoulli bit %d = %v, math/rand %v", seed, i, k, got, want)
					}
				}
			case 10:
				if a, b := g.r.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, a, b)
				}
			}
		}
	}
}

// TestReseedShardMatchesNewShard reseeds a generator caught partway
// through a block: the stream must restart exactly as a fresh
// NewShard's, and both must equal math/rand seeded the same way.
func TestReseedShardMatchesNewShard(t *testing.T) {
	g := New(5)
	for i := 0; i < 1000; i++ {
		g.Int63()
	}
	g.ReseedShard(7, "waves", 3)
	fresh := NewShard(7, "waves", 3)
	ref := rand.New(rand.NewSource(namedSeed(7, "waves#3")))
	for i := 0; i < 2000; i++ {
		a, b, c := g.Int63(), fresh.Int63(), ref.Int63()
		if a != b || a != c {
			t.Fatalf("draw %d: reseeded %d, NewShard %d, math/rand %d", i, a, b, c)
		}
	}
}

// TestRejectAtBoundary pins the constant FillBernoulli skips on: the
// largest draw below it converts below 1.0, it itself rounds to 1.0.
func TestRejectAtBoundary(t *testing.T) {
	if f := float64(int64(rejectAt-1)) / (1 << 63); f >= 1 {
		t.Errorf("float64(rejectAt-1)/2^63 = %v, want < 1", f)
	}
	if f := float64(int64(rejectAt)) / (1 << 63); f != 1 {
		t.Errorf("float64(rejectAt)/2^63 = %v, want 1", f)
	}
}

// TestThresholdIsExact checks the integer threshold sits exactly at
// the edge of Float64's comparison with p, including p values that
// are themselves draw outcomes, so a draw equal to p reads false.
func TestThresholdIsExact(t *testing.T) {
	f := func(x int64) float64 { return float64(x) / (1 << 63) }
	ps := []float64{0, math.Copysign(0, -1), -1, 0.3, 0.5, 1, 1.5, math.NaN(),
		math.Inf(1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0),
		f(1), f(12345 << 20), f(rejectAt - 1), f(1<<62 + 1<<10)}
	for _, p := range ps {
		s := &source{}
		tr := s.threshold(p)
		if tr < 0 || tr > rejectAt {
			t.Fatalf("p=%v: threshold %d outside [0, rejectAt]", p, tr)
		}
		if tr > 0 && !(f(tr-1) < p) {
			t.Errorf("p=%v: draw %d below threshold %d reads false", p, tr-1, tr)
		}
		if tr < rejectAt && f(tr) < p {
			t.Errorf("p=%v: draw at threshold %d reads true", p, tr)
		}
		if again := s.threshold(p); again != tr {
			t.Errorf("p=%v: cached threshold %d, searched %d", p, again, tr)
		}
	}
}

// TestFillBernoulliSkipsRejectedDraws plants draws Float64 rejects
// into the buffer: the bulk fill must skip them exactly as the
// per-draw Bernoulli's Float64 retry does.
func TestFillBernoulliSkipsRejectedDraws(t *testing.T) {
	bulk, ref := New(3), New(3)
	for _, g := range []*RNG{bulk, ref} {
		g.src.buf[5] = rejectAt
		g.src.buf[6] = 1<<64 - 1 // top bit masked off: Int63 = 2^63-1
		g.src.buf[70] = rejectAt + 100
	}
	dst := make([]uint64, 3)
	bulk.FillBernoulli(dst, 130, 0.5)
	checkFill(t, dst, 130, 0.5, ref)
	if a, b := bulk.Int63(), ref.Int63(); a != b {
		t.Fatalf("after fill: next draw %d, per-draw reference %d", a, b)
	}
}

// TestFillBernoulliClearsDst checks stale words are cleared, including
// those past the n-th bit.
func TestFillBernoulliClearsDst(t *testing.T) {
	dst := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	New(1).FillBernoulli(dst, 70, 0)
	for w, v := range dst {
		if v != 0 {
			t.Errorf("word %d = %#x, want 0", w, v)
		}
	}
}

// checkFill compares dst's first n bits against n per-draw
// Bernoulli(p) calls on ref, and the words past them against zero.
func checkFill(t *testing.T, dst []uint64, n int, p float64, ref *RNG) {
	t.Helper()
	for k := 0; k < 64*len(dst); k++ {
		got := dst[k/64]>>uint(k%64)&1 == 1
		want := k < n && ref.Bernoulli(p)
		if got != want {
			t.Fatalf("p=%v n=%d: bit %d = %v, per-draw Bernoulli %v", p, n, k, got, want)
		}
	}
}

// FuzzFillBernoulli checks the bulk fill bit for bit against n
// per-draw Bernoulli(p) calls, after a prefix of draws that moves the
// block offset, and that both streams agree afterwards.
func FuzzFillBernoulli(f *testing.F) {
	f.Add(int64(1), 0.3, uint16(128), uint16(0))
	f.Add(int64(-7), 0.0, uint16(65), uint16(600))
	f.Add(int64(42), -0.5, uint16(1), uint16(3))
	f.Add(int64(9), 1.0, uint16(1000), uint16(606))
	f.Add(int64(9), 1.5, uint16(63), uint16(607))
	f.Add(int64(2), math.NaN(), uint16(200), uint16(17))
	f.Add(int64(3), math.SmallestNonzeroFloat64, uint16(77), uint16(5))
	f.Add(int64(4), math.Nextafter(1, 0), uint16(129), uint16(1213))
	f.Add(int64(5), math.Inf(-1), uint16(0), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, p float64, n, prefix uint16) {
		bulk, ref := New(seed), New(seed)
		for i := 0; i < int(prefix); i++ {
			bulk.Int63()
			ref.Int63()
		}
		dst := make([]uint64, (int(n)+63)/64+1)
		bulk.FillBernoulli(dst, int(n), p)
		checkFill(t, dst, int(n), p, ref)
		for i := 0; i < 3; i++ {
			if a, b := bulk.Int63(), ref.Int63(); a != b {
				t.Fatalf("after fill: draw %d = %d, per-draw reference %d", i, a, b)
			}
		}
	})
}

// BenchmarkFillBernoulli draws one packed-tier cycle's input-line
// toggles: 128 cells, pim's CellsPerBank.
func BenchmarkFillBernoulli(b *testing.B) {
	g := New(1)
	dst := make([]uint64, 2)
	for b.Loop() {
		g.FillBernoulli(dst, 128, 0.3)
	}
}
