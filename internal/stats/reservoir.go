package stats

import (
	"math"

	"repro/internal/rng"
)

// Reservoir keeps a bounded uniform sample of a float64 stream
// (Vitter's Algorithm R), seeded so the retained sample is a
// deterministic function of (seed, stream).  While the stream length is
// within capacity the sample is the entire stream in arrival order, so
// quantiles computed from it are exact; past capacity, memory stays
// fixed and quantiles become estimates from a uniform subsample.  The
// simulation engine uses it to keep per-packet latency quantiles
// available at any scale without retaining O(arrivals) memory.
type Reservoir struct {
	vals []float64
	n    int64
	cap  int
	rand rng.Rand
}

// NewReservoir returns a reservoir retaining at most capacity values,
// with replacement decisions drawn from a stream seeded by seed.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	r := new(Reservoir)
	r.Reset(capacity, seed)
	return r
}

// Reset empties the reservoir for a new stream, keeping its storage:
// afterwards it reads exactly like NewReservoir(capacity, seed).  The
// zero Reservoir must be Reset before use.
func (r *Reservoir) Reset(capacity int, seed uint64) {
	if capacity < 1 {
		panic("stats: reservoir capacity must be at least 1")
	}
	r.vals, r.n, r.cap = r.vals[:0], 0, capacity
	r.rand.Seed(seed)
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(x float64) {
	r.n++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, x)
		return
	}
	if j := r.rand.Uint64n(uint64(r.n)); j < uint64(r.cap) {
		r.vals[j] = x
	}
}

// N returns the length of the stream offered so far.
func (r *Reservoir) N() int64 { return r.n }

// Len returns the number of retained values (min(N, capacity)).
func (r *Reservoir) Len() int { return len(r.vals) }

// Cap returns the reservoir capacity.
func (r *Reservoir) Cap() int { return r.cap }

// Exact reports whether the retained sample is the whole stream, i.e.
// quantiles computed from it are exact rather than estimates.
func (r *Reservoir) Exact() bool { return r.n <= int64(r.cap) }

// Values returns the retained sample, nil while it is empty (a Reset
// reservoir reads like a fresh one).  The slice is the reservoir's own
// storage: read it, do not modify or retain it across Adds.
func (r *Reservoir) Values() []float64 {
	if len(r.vals) == 0 {
		return nil
	}
	return r.vals
}

// Quantile returns the q-quantile of the retained sample, or NaN if the
// reservoir is empty.  It panics on q outside [0, 1].
func (r *Reservoir) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile fraction out of [0,1]")
	}
	if len(r.vals) == 0 {
		return math.NaN()
	}
	return Quantile(r.vals, q)
}

// Quantiles returns several quantiles of the retained sample with one
// sort, NaN-filled if the reservoir is empty.  It validates every
// fraction before sorting.  The sort is of the sample itself, not a
// copy: it spends the sample's order (later Adds would replace
// different values), so call it once the stream has ended.
func (r *Reservoir) Quantiles(qs ...float64) []float64 {
	for _, q := range qs {
		if q < 0 || q > 1 {
			panic("stats: quantile fraction out of [0,1]")
		}
	}
	if len(r.vals) == 0 {
		out := make([]float64, len(qs))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	return quantilesSorting(r.vals, qs)
}
