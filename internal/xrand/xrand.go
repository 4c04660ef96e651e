// Package xrand provides deterministic, splittable random streams for
// reproducible experiments.
//
// Every stochastic component in the repository (synthetic weights, input
// bitstreams, simulated annealing, IR-drop noise) draws from an xrand.RNG
// derived from a named stream so experiment results are bit-stable across
// runs and machines, which the benchmark harness relies on.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// RNG is a deterministic random source with distribution helpers.
// Its generator is xrand's own copy of math/rand's Go 1 source, so
// every draw equals rand.New(rand.NewSource(seed))'s.
type RNG struct {
	src *source
	r   *rand.Rand
}

// New returns an RNG seeded with the given seed.
func New(seed int64) *RNG {
	src := &source{}
	src.Seed(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// NewNamed derives a deterministic RNG from a root seed and a stream
// name. Distinct names yield independent streams, so adding a consumer
// does not disturb existing ones.
func NewNamed(seed int64, name string) *RNG {
	return New(namedSeed(seed, name))
}

// namedSeed folds a stream name into a root seed.
func namedSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// NewShard derives the shard'th stream of a named family. Shards of
// the same family are mutually independent and independent of the
// plain NewNamed stream, so a loop can be split across workers with
// each index drawing from its own stream: results are then identical
// whether the loop runs serially or sharded over a pool, which is the
// determinism contract the parallel runner relies on.
func NewShard(seed int64, name string, shard int) *RNG {
	return NewNamed(seed, name+"#"+strconv.Itoa(shard))
}

// ReseedShard re-derives this RNG in place as the shard'th stream of a
// named family: the subsequent draw sequence is identical to a fresh
// NewShard's, but the 4.9 KB generator buffer is reused instead of
// reallocated. Hot loops that consume one stream per work item (the
// simulator's chunked wave executor) reseed a per-worker RNG this way.
func (g *RNG) ReseedShard(seed int64, name string, shard int) {
	g.r.Seed(namedSeed(seed, name+"#"+strconv.Itoa(shard)))
}

// Split derives a child stream from this RNG by name without consuming
// the parent's sequence deterministically tied to the name.
func (g *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(int64(h.Sum64()) ^ g.Int63())
}

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns an int in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Laplace returns a sample from Laplace(mu, b). Neural-network weight
// distributions are frequently heavier-tailed than Gaussian; the model
// zoo mixes Laplace and Normal components.
func (g *RNG) Laplace(mu, b float64) float64 {
	u := g.r.Float64() - 0.5
	if u < 0 {
		return mu + b*math.Log(1+2*u)
	}
	return mu - b*math.Log(1-2*u)
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// FillBernoulli fills dst with n packed independent Bernoulli(p) bits:
// bit k%64 of word k/64 is set exactly when the k-th of n Bernoulli(p)
// calls would return true, and the generator is left where those calls
// would leave it. Words past the n-th bit are cleared; dst must hold n
// bits. Instead of a Float64 per bit it compares each raw draw against
// one integer threshold, read straight from the generator's buffer.
func (g *RNG) FillBernoulli(dst []uint64, n int, p float64) {
	clear(dst)
	g.src.fill(dst, n, g.src.threshold(p))
}

// Exp returns an exponentially distributed sample with rate lambda.
func (g *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp rate must be positive")
	}
	return g.r.ExpFloat64() / lambda
}

// NormalSlice fills a new slice of n samples from N(mu, sigma^2).
func (g *RNG) NormalSlice(n int, mu, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Normal(mu, sigma)
	}
	return out
}
