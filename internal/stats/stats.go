// Package stats provides the summary statistics the measurement harness
// reports: running moments, quantiles, confidence intervals, and
// down-sampled time series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates running moments and extremes of a stream of
// float64 observations.  The zero value is ready to use.
type Summary struct {
	n          int64
	mean, m2   float64
	min, max   float64
	hasExtreme bool
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasExtreme || x < s.min {
		s.min = x
	}
	if !s.hasExtreme || x > s.max {
		s.max = x
	}
	s.hasExtreme = true
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 {
	if !s.hasExtreme {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 {
	if !s.hasExtreme {
		return 0
	}
	return s.max
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean (0 if fewer than two observations).
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
}

// String formats the summary compactly.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g [%.4g, %.4g]",
		s.n, s.Mean(), s.CI95(), s.Min(), s.Max())
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the data using linear
// interpolation between order statistics.  It sorts a copy; the input is
// not modified.  It panics on empty data or q outside [0, 1].
func Quantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		panic("stats: quantile of empty data")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile fraction out of [0,1]")
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// Quantiles returns several quantiles with one sort.  Every fraction is
// validated before the data is sorted, so a bad fraction panics
// immediately instead of after an O(n log n) sort with the output
// half-filled.
func Quantiles(data []float64, qs ...float64) []float64 {
	if len(data) == 0 {
		panic("stats: quantile of empty data")
	}
	return quantilesSorting(append([]float64(nil), data...), qs)
}

// quantilesSorting validates qs, sorts data in place and returns its
// qs-quantiles.
func quantilesSorting(data, qs []float64) []float64 {
	for _, q := range qs {
		if q < 0 || q > 1 {
			panic("stats: quantile fraction out of [0,1]")
		}
	}
	sort.Float64s(data)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = quantileSorted(data, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo == len(sorted)-1 {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Series is a down-sampling time series recorder: it keeps at most Cap
// points by doubling its sampling stride when full, so arbitrarily long
// executions produce bounded-size traces with uniform spacing.
type Series struct {
	cap    int
	stride int64
	next   int64
	T      []int64
	V      []float64
}

// NewSeries returns a series that retains at most cap points (cap ≥ 2).
func NewSeries(cap int) *Series {
	if cap < 2 {
		panic("stats: series cap must be at least 2")
	}
	return &Series{cap: cap, stride: 1}
}

// Add offers the observation v at time t.  Points are recorded every
// stride steps; when the buffer fills, every other point is dropped and
// the stride doubles.  The declined-sample fast path is small enough to
// inline, so per-slot callers pay one compare per skipped observation.
func (s *Series) Add(t int64, v float64) {
	if t < s.next {
		return
	}
	s.record(t, v)
}

func (s *Series) record(t int64, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	if len(s.T) >= s.cap {
		keepT, keepV := s.T[:0], s.V[:0]
		for i := 0; i < len(s.T); i += 2 {
			keepT = append(keepT, s.T[i])
			keepV = append(keepV, s.V[i])
		}
		s.T, s.V = keepT, keepV
		s.stride *= 2
	}
	// The next sample is one (possibly just-doubled) stride after the
	// last *retained* point; computing it from the pre-compaction stride
	// would land it an old stride late and skew every later sample off
	// the uniform grid.
	s.next = s.T[len(s.T)-1] + s.stride
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.T) }

// Stride returns the current sampling stride.
func (s *Series) Stride() int64 { return s.stride }
