package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("seed 0 left generator in forbidden all-zero state")
	}
	// Output should still look non-degenerate.
	var or uint64
	for i := 0; i < 16; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("seed 0 produces all-zero output")
	}
}

func TestSplitDecorrelated(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d/100 identical", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < n/7-800 || c > n/7+800 {
			t.Fatalf("Intn(7) value %d count %d far from uniform %d", v, c, n/7)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nOne(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(2)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestGeometricMean(t *testing.T) {
	// E[Geometric(p)] = (1-p)/p.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		r := New(uint64(p * 1000))
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Geometric(p))
		}
		want := (1 - p) / p
		got := sum / n
		if math.Abs(got-want) > 0.05*math.Max(want, 0.2) {
			t.Fatalf("Geometric(%v) mean = %v, want %v", p, got, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{10, 0.5}, {100, 0.1}, {100, 0.9}, {1000, 0.01}, {7, 0.3},
	}
	for _, c := range cases {
		r := New(uint64(c.n)*31 + uint64(c.p*97))
		const trials = 30000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(c.n, c.p))
			if v < 0 || v > float64(c.n) {
				t.Fatalf("Binomial(%d,%v) out of range: %v", c.n, c.p, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / trials
		wantMean := float64(c.n) * c.p
		variance := sumsq/trials - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.1 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+0.2 {
			t.Errorf("Binomial(%d,%v) var = %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(4)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 80} {
		r := New(uint64(lambda * 13))
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		got := sum / n
		if math.Abs(got-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, got)
		}
	}
}

func TestSampleIndicesProperties(t *testing.T) {
	r := New(8)
	f := func(seed uint64, n16 uint16, pRaw uint16) bool {
		n := int(n16 % 500)
		p := float64(pRaw) / 65535
		rr := New(seed)
		got := rr.SampleIndices(nil, n, p)
		prev := -1
		for _, idx := range got {
			if idx <= prev || idx >= n {
				return false
			}
			prev = idx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	// Mean check.
	const n, p, trials = 1000, 0.05, 2000
	total := 0
	for i := 0; i < trials; i++ {
		total += len(r.SampleIndices(nil, n, p))
	}
	mean := float64(total) / trials
	if math.Abs(mean-n*p) > 3 {
		t.Fatalf("SampleIndices mean %v, want %v", mean, n*p)
	}
}

func TestSampleIndicesEdges(t *testing.T) {
	r := New(10)
	if got := r.SampleIndices(nil, 10, 0); len(got) != 0 {
		t.Fatalf("p=0 selected %v", got)
	}
	got := r.SampleIndices(nil, 5, 1)
	if len(got) != 5 {
		t.Fatalf("p=1 selected %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("p=1 selected %v", got)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance %v", variance)
	}
}

// mul128 is the portable 128-bit product Uint64n used before it took
// bits.Mul64: the reference TestMul128 holds bits.Mul64 to.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// TestMul128 pins the product Uint64n rejects and scales by: the
// portable reference on fixed cases, bits.Mul64 equal to it on random
// operands, and Uint64n equal to Lemire's method on the reference from
// the same generator states.
func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
		if bh, bl := bits.Mul64(c.a, c.b); bh != hi || bl != lo {
			t.Fatalf("bits.Mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, bh, bl, hi, lo)
		}
	}
	r := New(9)
	for i := 0; i < 100_000; i++ {
		a, b := r.Uint64(), r.Uint64()>>(i%64)
		bh, bl := bits.Mul64(a, b)
		if hi, lo := mul128(a, b); bh != hi || bl != lo {
			t.Fatalf("bits.Mul64(%d,%d) = (%d,%d), mul128 (%d,%d)", a, b, bh, bl, hi, lo)
		}
	}
	got, ref := New(10), New(10)
	for i := 0; i < 100_000; i++ {
		n := uint64(i%1000) + 1
		if i%3 == 0 {
			n = 1<<63 + uint64(i) // rejects about half the draws
		}
		var want uint64
		for {
			hi, lo := mul128(ref.Uint64(), n)
			if lo >= n || lo >= -n%n {
				want = hi
				break
			}
		}
		if v := got.Uint64n(n); v != want || got.s != ref.s {
			t.Fatalf("Uint64n(%d) = %d, reference %d (or the generator states differ)", n, v, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialLargeN(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1_000_000, 1e-4)
	}
}

func BenchmarkSampleIndices(b *testing.B) {
	r := New(1)
	buf := make([]int, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.SampleIndices(buf[:0], 100000, 1e-3)
	}
}

// referenceSampleIndices is SampleIndices as a plain loop of Geometric
// skips, evaluating the exact formula for every skip: the definition the
// fast path in SampleIndicesLog must reproduce draw for draw.
func referenceSampleIndices(r *Rand, dst []int, n int, p float64) []int {
	if p <= 0 || n == 0 {
		return dst
	}
	if p >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	i := r.Geometric(p)
	for i < int64(n) {
		dst = append(dst, int(i))
		i += 1 + r.Geometric(p)
	}
	return dst
}

// checkSampleMatchesReference runs SampleIndices and the reference from
// identical generator states and fails unless both select the same
// indices and leave the generator in the same state.
func checkSampleMatchesReference(t *testing.T, seed uint64, n int, p float64, calls int) {
	t.Helper()
	fast, ref := New(seed), New(seed)
	var got, want []int
	for c := 0; c < calls; c++ {
		got = fast.SampleIndices(got[:0], n, p)
		want = referenceSampleIndices(ref, want[:0], n, p)
		if len(got) != len(want) {
			t.Fatalf("seed %d n=%d p=%v call %d: %d indices, reference %d", seed, n, p, c, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d n=%d p=%v call %d: index %d is %d, reference %d", seed, n, p, c, i, got[i], want[i])
			}
		}
		if fast.s != ref.s {
			t.Fatalf("seed %d n=%d p=%v call %d: generator state diverged from the reference", seed, n, p, c)
		}
	}
}

func TestSampleIndicesMatchesReference(t *testing.T) {
	ns := []int{0, 1, 2, 33, 100_000}
	ps := []float64{1e-12, 1e-9, 1e-4, 0.1, 0.5, 0.5 + 1e-12, 0.9, 1}
	for _, n := range ns {
		for _, p := range ps {
			calls := 200
			if float64(n)*p > 1000 {
				calls = 5
			}
			for seed := uint64(1); seed <= 4; seed++ {
				checkSampleMatchesReference(t, seed, n, p, calls)
			}
		}
	}
}

// TestSkipsPastNeverContradictsExact walks u one ulp at a time across
// the two places the fast skip and the exact formula could disagree —
// the fast skip's own threshold and the exact transition (1-p)^m — and
// requires that whenever the fast skip fires, the exact skip covers all
// m positions too.
func TestSkipsPastNeverContradictsExact(t *testing.T) {
	ps := []float64{1e-12, 1e-9, 3e-7, 1e-4, 0.01, 0.1, 1.0 / 3, 0.5}
	ms := []int{1, 2, 3, 7, 33, 1000, 99_999}
	const steps = 2000
	for _, p := range ps {
		lq := math.Log1p(-p)
		for _, m := range ms {
			if float64(m)*p >= 1 {
				continue
			}
			exactPast := func(u float64) bool {
				return math.Floor(math.Log(u)/lq) >= float64(m)
			}
			for _, edge := range []float64{(1 - float64(m)*p) * skipMargin, math.Pow(1-p, float64(m))} {
				u := edge
				for i := 0; i < steps; i++ {
					u = math.Nextafter(u, 0)
				}
				fired := 0
				for i := 0; i < 2*steps; i++ {
					if SkipsPast(u, m, p) {
						fired++
						if !exactPast(u) {
							t.Fatalf("p=%v m=%d u=%v: fast skip fired but exact skip %v < m",
								p, m, u, math.Floor(math.Log(u)/lq))
						}
					}
					u = math.Nextafter(u, 1)
				}
				if edge < math.Pow(1-p, float64(m)) && fired == 0 {
					t.Fatalf("p=%v m=%d: fast skip never fired below its own threshold %v", p, m, edge)
				}
			}
		}
	}
	// The bound is a one-sided proof: never claimed for p > 1/2 or m·p ≥ 1.
	if SkipsPast(1e-300, 1, 0.5+1e-12) || SkipsPast(1e-300, 10, 0.1) {
		t.Fatal("fast skip fired outside its proven range")
	}
}

// FuzzSampleIndicesMatchesReference cross-checks SampleIndices against
// the repeated-Geometric reference on fuzzer-chosen seeds, sizes and
// probabilities: same indices, same generator state afterwards.
func FuzzSampleIndicesMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint32(33), 0.1)
	f.Add(uint64(7), uint32(1), 0.5)
	f.Add(uint64(2022), uint32(100_000), 1e-9)
	f.Add(uint64(3), uint32(2), 0.5+1e-12)
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, p float64) {
		if math.IsNaN(p) {
			t.Skip()
		}
		size := int(n % 200_001)
		if float64(size)*math.Min(math.Max(p, 0), 1) > 20_000 {
			size = 20_000
		}
		checkSampleMatchesReference(t, seed, size, p, 3)
	})
}
