package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-3) > 1e-12 {
		t.Fatalf("mean %v", s.Mean())
	}
	if math.Abs(s.Variance()-2.5) > 1e-12 {
		t.Fatalf("variance %v", s.Variance())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("extremes %v %v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 not positive")
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(100)
		var s Summary
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			x := r.NormFloat64() * 10
			s.Add(x)
			sum += x
			sumsq += x * x
		}
		mean := sum / float64(n)
		variance := (sumsq - float64(n)*mean*mean) / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 &&
			math.Abs(s.Variance()-variance) < 1e-6*math.Max(1, variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	var s Summary
	s.Add(-5)
	s.Add(-1)
	if s.Min() != -5 || s.Max() != -1 {
		t.Fatalf("extremes %v %v", s.Min(), s.Max())
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	if q := Quantile(data, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(data, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(data, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(data, 0.25); q != 2 {
		t.Fatalf("q25 = %v", q)
	}
	// Input unchanged.
	if data[0] != 5 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileSingle(t *testing.T) {
	if q := Quantile([]float64{7}, 0.9); q != 7 {
		t.Fatalf("single-element quantile %v", q)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	data := []float64{0, 10}
	if q := Quantile(data, 0.25); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("interpolated q25 = %v", q)
	}
}

func TestQuantilesConsistent(t *testing.T) {
	data := []float64{9, 2, 7, 4, 6, 1}
	qs := Quantiles(data, 0.1, 0.5, 0.9)
	for i, q := range []float64{0.1, 0.5, 0.9} {
		if qs[i] != Quantile(data, q) {
			t.Fatalf("Quantiles mismatch at %v", q)
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty": func() { Quantile(nil, 0.5) },
		"low":   func() { Quantile([]float64{1}, -0.1) },
		"high":  func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSeriesDownsamples(t *testing.T) {
	s := NewSeries(16)
	for i := int64(0); i < 10000; i++ {
		s.Add(i, float64(i))
	}
	if s.Len() >= 16 {
		t.Fatalf("series exceeded cap: %d", s.Len())
	}
	if s.Len() < 4 {
		t.Fatalf("series too aggressive: %d points", s.Len())
	}
	// Times must be strictly increasing and values consistent.
	for i := 1; i < s.Len(); i++ {
		if s.T[i] <= s.T[i-1] {
			t.Fatalf("series times not increasing: %v", s.T)
		}
		if s.V[i] != float64(s.T[i]) {
			t.Fatalf("series value mismatch at %d", i)
		}
	}
	if s.Stride() < 2 {
		t.Fatalf("stride did not grow: %d", s.Stride())
	}
}

func TestSeriesSmallInput(t *testing.T) {
	s := NewSeries(100)
	s.Add(3, 1)
	s.Add(5, 2)
	if s.Len() != 2 || s.T[0] != 3 || s.T[1] != 5 {
		t.Fatalf("series %v %v", s.T, s.V)
	}
}

func TestSeriesCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cap 1 did not panic")
		}
	}()
	NewSeries(1)
}

func TestSeriesUniformSpacingAcrossCompactions(t *testing.T) {
	// Regression: Add used to compute the next sample time from the
	// pre-compaction stride, so the first post-compaction sample landed
	// one old stride late and every later compaction compounded the
	// skew.  Under dense input the retained trace must keep uniform
	// spacing — the documented contract — across several compactions.
	// An odd cap retains the just-added point at compaction time, which
	// is the case the old code skewed.
	for _, capN := range []int{9, 16, 33} {
		s := NewSeries(capN)
		for i := int64(0); i < 5000; i++ {
			s.Add(i, float64(i))
		}
		if s.Stride() < 4 {
			t.Fatalf("cap %d: expected ≥2 compactions, stride %d", capN, s.Stride())
		}
		for i := 1; i < s.Len(); i++ {
			if d := s.T[i] - s.T[i-1]; d != s.Stride() {
				t.Fatalf("cap %d: spacing %d at index %d, want uniform %d (T=%v)",
					capN, d, i, s.Stride(), s.T)
			}
		}
	}
}

func TestQuantilesValidateUpFront(t *testing.T) {
	// A bad fraction anywhere in the list must panic (before the sort;
	// the output is never half-filled).
	for _, qs := range [][]float64{{0.5, -0.1}, {0.5, 1.5}, {2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Quantiles(%v) did not panic", qs)
				}
			}()
			Quantiles([]float64{3, 1, 2}, qs...)
		}()
	}
}

func TestReservoirExactBelowCapacity(t *testing.T) {
	r := NewReservoir(100, 7)
	data := []float64{9, 2, 7, 4, 6, 1}
	for _, x := range data {
		r.Add(x)
	}
	if r.N() != 6 || r.Len() != 6 || !r.Exact() {
		t.Fatalf("n=%d len=%d exact=%v", r.N(), r.Len(), r.Exact())
	}
	// Below capacity the sample is the whole stream: quantiles match the
	// exact ones.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if r.Quantile(q) != Quantile(data, q) {
			t.Fatalf("q=%v: reservoir %v, exact %v", q, r.Quantile(q), Quantile(data, q))
		}
	}
	qs := r.Quantiles(0.5, 0.99)
	if qs[0] != Quantile(data, 0.5) || qs[1] != Quantile(data, 0.99) {
		t.Fatalf("Quantiles mismatch: %v", qs)
	}
}

func TestReservoirBoundedAndUniform(t *testing.T) {
	const capN, n = 64, 100000
	r := NewReservoir(capN, 11)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if r.Len() != capN || r.N() != n || r.Exact() {
		t.Fatalf("len=%d n=%d exact=%v", r.Len(), r.N(), r.Exact())
	}
	// A uniform sample of 0..n-1 has median near n/2; a reservoir biased
	// toward either end of the stream would be far off.
	if med := r.Quantile(0.5); med < 0.25*n || med > 0.75*n {
		t.Fatalf("median %v of a uniform 0..%d sample", med, n)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	sample := func(seed uint64) []float64 {
		r := NewReservoir(16, seed)
		for i := 0; i < 1000; i++ {
			r.Add(float64(i * 3))
		}
		out := make([]float64, r.Len())
		copy(out, r.Values())
		return out
	}
	a, b := sample(5), sample(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sample(6)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds retained identical samples")
	}
}

func TestReservoirEmptyAndValidation(t *testing.T) {
	r := NewReservoir(4, 1)
	if !math.IsNaN(r.Quantile(0.5)) {
		t.Fatal("empty reservoir quantile not NaN")
	}
	if qs := r.Quantiles(0.5, 0.9); !math.IsNaN(qs[0]) || !math.IsNaN(qs[1]) {
		t.Fatalf("empty reservoir quantiles %v", qs)
	}
	for name, f := range map[string]func(){
		"cap":          func() { NewReservoir(0, 1) },
		"bad q":        func() { r.Quantile(-1) },
		"bad qs":       func() { r.Quantiles(0.5, 2) },
		"bad qs empty": func() { NewReservoir(4, 1).Quantiles(-0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestReservoirResetReadsLikeNew: a Reset reservoir, whether it held a
// longer, already sorted stream or is the zero value, reads as empty
// (nil Values) and then retains exactly what a fresh one does.
func TestReservoirResetReadsLikeNew(t *testing.T) {
	stream := func(r *Reservoir, n int) {
		for i := 0; i < n; i++ {
			r.Add(float64(i % 37))
		}
	}
	used := NewReservoir(8, 3)
	stream(used, 500)
	used.Quantiles(0.5)
	var zero Reservoir
	for name, r := range map[string]*Reservoir{"used": used, "zero": &zero} {
		r.Reset(16, 9)
		if r.Values() != nil || r.N() != 0 || r.Cap() != 16 {
			t.Fatalf("%s: Reset reads values=%v n=%d cap=%d", name, r.Values(), r.N(), r.Cap())
		}
		fresh := NewReservoir(16, 9)
		stream(r, 1000)
		stream(fresh, 1000)
		if !slices.Equal(r.Values(), fresh.Values()) {
			t.Fatalf("%s: Reset retained %v, fresh %v", name, r.Values(), fresh.Values())
		}
	}
}

// BenchmarkReservoirQuantiles times the sweep's per-trial reduce: p50
// and p99 of a latency reservoir filled to the engine's default
// capacity (16,384) with tie-heavy values in random order, as a
// Bernoulli cell leaves it.
func BenchmarkReservoirQuantiles(b *testing.B) {
	const capacity = 16384
	r, g := NewReservoir(capacity, 1), rng.New(1)
	for i := 0; i < capacity; i++ {
		r.Add(float64(g.Intn(capacity / 8)))
	}
	sample := slices.Clone(r.vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(r.vals, sample) // Quantiles sorts the sample in place
		r.Quantiles(0.50, 0.99)
	}
}
