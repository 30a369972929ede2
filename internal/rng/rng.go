// Package rng provides a deterministic, seedable pseudo-random number
// generator and the sampling routines the simulator needs.
//
// The generator is xoshiro256++ (Blackman & Vigna), chosen because it is
// fast, has a 256-bit state that is easy to split deterministically, and
// is reproducible across platforms — properties the stochastic-simulation
// harness depends on.  Every simulation trial owns its own *Rand, so
// trials can run in parallel without locks and a (seed, trial) pair
// always replays the same execution.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256++ pseudo-random number generator.  It is not safe
// for concurrent use; give each goroutine its own Rand (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed.  Distinct seeds
// yield decorrelated streams: the state is expanded with SplitMix64 as
// recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state derived from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// A state of all zeros is the one forbidden state; the SplitMix64
	// expansion cannot produce it, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split returns a new generator deterministically derived from r's
// current state.  The child stream is decorrelated from the parent's
// subsequent output; use it to give each parallel trial its own stream.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Intn returns a uniform int in [0, n).  It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n).  It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method.  It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// Bernoulli reports true with probability p.  Values of p outside [0, 1]
// are clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials; that is, a sample from the geometric
// distribution on {0, 1, 2, ...} with success probability p.
// It panics if p <= 0 or p > 1.
func (r *Rand) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric with p outside (0, 1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(ln U / ln(1-p)), U uniform in (0, 1).
	g := math.Floor(math.Log(r.OpenFloat64()) / math.Log1p(-p))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(g)
}

// Binomial returns a sample from Binomial(n, p): the number of successes
// in n independent Bernoulli(p) trials.  The implementation uses
// geometric skipping, which is exact and runs in O(np+1) expected time —
// proportional to the expected number of successes, which is the work the
// caller is about to do with them anyway.  For p > 1/2 it counts failures
// instead, so the cost is O(n·min(p, 1-p) + 1).
func (r *Rand) Binomial(n int64, p float64) int64 {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	var successes int64
	i := r.Geometric(p)
	for i < n {
		successes++
		i += 1 + r.Geometric(p)
	}
	return successes
}

// Poisson returns a sample from Poisson(lambda).  For small lambda it
// uses Knuth's product method; for large lambda it splits the mean and
// sums, keeping the product method's terms away from underflow.
func (r *Rand) Poisson(lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	const chunk = 30
	var n int64
	for lambda > chunk {
		n += r.poissonKnuth(chunk)
		lambda -= chunk
	}
	return n + r.poissonKnuth(lambda)
}

func (r *Rand) poissonKnuth(lambda float64) int64 {
	limit := math.Exp(-lambda)
	prod := r.Float64()
	var n int64
	for prod > limit {
		n++
		prod *= r.Float64()
	}
	return n
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleIndices selects each index in [0, n) independently with
// probability p and appends the selected indices to dst in increasing
// order.  It runs in O(k+1) expected time where k is the number selected,
// using geometric skipping.  It returns the extended slice.
func (r *Rand) SampleIndices(dst []int, n int, p float64) []int {
	return r.SampleIndicesLog(dst, n, p, math.Log1p(-p))
}

// skipMargin is the relative slack the fast skip in SampleIndicesLog
// keeps below the Bernoulli bound; it dwarfs the few-ulp error of the
// exact formula (DESIGN.md §9.8).
const skipMargin = 1 - 1e-9

// SampleIndicesLog is SampleIndices with lq = math.Log1p(-p) supplied by
// the caller, for callers that sample repeatedly at a few fixed
// probabilities; lq is ignored unless 0 < p < 1.  It consumes the
// generator exactly as a loop of Geometric(p) skips would — one uniform
// per skip, including the final skip that runs past the end — and
// selects the same indices, but it settles that final skip without a
// logarithm whenever the bound in SkipsPast proves it.
func (r *Rand) SampleIndicesLog(dst []int, n int, p, lq float64) []int {
	if p <= 0 || n == 0 {
		return dst
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	return r.SampleIndicesFrom(dst, n, p, lq, r.OpenFloat64())
}

// OpenFloat64 returns a uniform float64 in (0, 1): Float64, drawn again
// while it reads 0.  Every geometric skip of SampleIndicesLog starts
// with one.
func (r *Rand) OpenFloat64() float64 {
	for {
		if u := r.Float64(); u != 0 {
			return u
		}
	}
}

// SampleIndicesFrom is SampleIndicesLog for 0 < p < 1 and n > 0 after
// its first draw: u is the uniform OpenFloat64 returned.  A caller that
// samples many small groups draws u itself and, when SkipsPast(u, n, p)
// already proves the sample empty, skips the call.
func (r *Rand) SampleIndicesFrom(dst []int, n int, p, lq, u float64) []int {
	for next := 0; ; u = r.OpenFloat64() {
		left := n - next
		if SkipsPast(u, left, p) {
			return dst
		}
		g := math.Floor(math.Log(u) / lq)
		if g > math.MaxInt64/2 {
			g = math.MaxInt64 / 2
		}
		if int64(g) >= int64(left) {
			return dst
		}
		next += int(g)
		dst = append(dst, next)
		next++
	}
}

// SkipsPast reports that a geometric skip drawn from uniform u certainly
// covers all m remaining positions, i.e. floor(Log(u)/Log1p(-p)) ≥ m.
// u < (1-p)^m implies it, and Bernoulli's inequality gives
// (1-p)^m ≥ 1-m·p; the condition p ≤ ½ bounds m·|Log1p(-p)| below 1.39
// so that the skipMargin slack outweighs the rounding of the exact
// formula.  A false answer decides nothing: the caller evaluates the
// exact formula.
func SkipsPast(u float64, m int, p float64) bool {
	mp := float64(m) * p
	return p <= 0.5 && mp < 1 && u < (1-mp)*skipMargin
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
