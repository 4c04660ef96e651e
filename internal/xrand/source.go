package xrand

import (
	"math"
	"math/rand"
	"sync"
)

// The Go 1 generator behind math/rand.NewSource is an additive lagged
// Fibonacci sequence: output n is output n-607 plus output n-273,
// mod 2^64. source keeps the last 607 outputs in a buffer and
// continues that recurrence itself, a block of 607 at a time, so every
// draw is the one math/rand would have returned, while hot loops can
// read the buffer without a dynamic call per value.
const (
	rngLen = 607
	rngTap = 273

	int63Mask = 1<<63 - 1
	// rejectAt is the smallest Int63 value whose Float64 conversion
	// rounds up to 1.0; math/rand's Float64 rejects those draws and
	// draws again, and FillBernoulli skips them the same way.
	rejectAt = 1<<63 - 512
)

// seeders lends math/rand's own Go 1 source to seeding. Its seeding
// mixes a 607-word table math/rand does not export, so a source is
// seeded by copying the first rngLen outputs of a real one; pooling
// that one keeps a single generator state per RNG, not two.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// source is a concrete copy of math/rand's Go 1 source. buf holds the
// current block of rngLen outputs and pos the index of the next one;
// pos == rngLen means the block is spent.
type source struct {
	buf [rngLen]uint64
	pos int
	// The last FillBernoulli threshold, keyed by the bits of its p:
	// all groups of a simulated cycle share one p.
	thrP  uint64
	thrT  int64
	thrOK bool
}

// Seed implements rand.Source.
func (s *source) Seed(seed int64) {
	ref := seeders.Get().(rand.Source64)
	ref.Seed(seed)
	for i := range s.buf {
		s.buf[i] = ref.Uint64()
	}
	seeders.Put(ref)
	s.pos = 0
}

// refill advances buf by one block of the recurrence in place. For
// j < rngTap, output j-273 of the new block is still in the old one
// (at j+334); from rngTap on it has already been written.
func (s *source) refill() {
	b := &s.buf
	for j := 0; j < rngTap; j++ {
		b[j] += b[j+rngLen-rngTap]
	}
	for j := rngTap; j < rngLen; j++ {
		b[j] += b[j-rngTap]
	}
	s.pos = 0
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.buf[s.pos]
	s.pos++
	return x
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// threshold returns T such that, for every draw x that Float64 does
// not reject, float64(x)/(1<<63) < p exactly when x < T. The
// conversion is monotone in x, so the draws below p form a prefix of
// [0, rejectAt) and a binary search finds its end; NaN and p <= 0
// give 0, p >= 1 gives rejectAt.
func (s *source) threshold(p float64) int64 {
	key := math.Float64bits(p)
	if s.thrOK && s.thrP == key {
		return s.thrT
	}
	lo, hi := int64(0), int64(rejectAt)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.thrP, s.thrT, s.thrOK = key, lo, true
	return lo
}

// fill sets bit k of dst for each of n Bernoulli draws below
// threshold t, consuming the buffer as n Float64 calls would: draws at
// or above rejectAt are skipped. It writes every word holding one of
// the n bits; dst must have room for them. Each accepted draw's
// verdict is the sign of x-t, shifted in at the top of word, so after
// 64 draws bit k holds draw k.
func (s *source) fill(dst []uint64, n int, t int64) {
	var word uint64
	k := 0
	for k < n {
		if s.pos == rngLen {
			s.refill()
		}
		end := min(rngLen, s.pos+n-k)
		for _, v := range s.buf[s.pos:end] {
			x := int64(v & int63Mask)
			if x >= rejectAt {
				continue
			}
			word = word>>1 | uint64(x-t)&(1<<63)
			k++
			if k&63 == 0 {
				dst[k>>6-1] = word
			}
		}
		s.pos = end
	}
	if r := k & 63; r != 0 {
		dst[k>>6] = word >> uint(64-r)
	}
}
