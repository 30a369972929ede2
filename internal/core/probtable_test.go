package core

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/rng"
)

// formulaProb is the joining probability as prob computed it before the
// table: p0·f^e, capped at 1 from eCap on.
func formulaProb(d *DecodableBackoff, e int) float64 {
	if e >= d.eCap {
		return 1
	}
	p := d.p0 * math.Pow(d.factor, float64(e))
	if p > 1 {
		return 1
	}
	return p
}

// checkProbTable reads probLog over [eCap−probTableLen−10, eCap+5],
// top-down and then bottom-up (the table fills on first use, so both
// orders must read the same values), and requires each pair to be
// bit-equal to the formula and its Log1p.
func checkProbTable(t *testing.T, name string, d *DecodableBackoff) {
	t.Helper()
	lo, hi := d.eCap-probTableLen-10, d.eCap+5
	check := func(e int) {
		p, lq := d.probLog(e)
		want := formulaProb(d, e)
		if math.Float64bits(p) != math.Float64bits(want) {
			t.Fatalf("%s: prob(%d) = %v, formula %v", name, e, p, want)
		}
		if wlq := math.Log1p(-want); math.Float64bits(lq) != math.Float64bits(wlq) {
			t.Fatalf("%s: Log1p(-prob(%d)) = %v, formula %v", name, e, lq, wlq)
		}
	}
	for e := hi; e >= lo; e-- {
		check(e)
	}
	for e := lo; e <= hi; e++ {
		check(e)
	}
	if len(d.probs) > probTableLen {
		t.Fatalf("%s: table holds %d entries, bound %d", name, len(d.probs), probTableLen)
	}
}

// TestProbTableMatchesFormula holds the probability table to the
// formula it replaced, for the paper's parameters at several κ and for
// the ablations' factor and start probability, including across a
// Reset to another κ: a table Reset did not empty would read the old
// κ's probabilities.
func TestProbTableMatchesFormula(t *testing.T) {
	for _, kappa := range []int{6, 8, 64, 1024} {
		checkProbTable(t, "default", New(kappa, rng.New(1)))
		checkProbTable(t, "factor 1.01", New(kappa, rng.New(1), WithUpdateFactor(1.01)))
		checkProbTable(t, "p0 0.3 factor 3", New(kappa, rng.New(1), WithInitialProb(0.3), WithUpdateFactor(3)))
		checkProbTable(t, "p0 1e-4", New(kappa, rng.New(1), WithInitialProb(1e-4)))
	}
	d := New(64, rng.New(1))
	d.probLog(d.eCap - probTableLen) // fill the whole table at κ = 64
	for _, kappa := range []int{8, 1024, 6} {
		d.Reset(kappa, rng.New(2))
		checkProbTable(t, "after Reset", d)
	}
	d.Reset(64, rng.New(3), WithUpdateFactor(1.01))
	checkProbTable(t, "after Reset with a factor", d)
}

// BenchmarkEpochsManyBuckets times DBA in the shape of the benchmark
// grid's costliest DBA cell, coded κ=8 with Bernoulli(0.7) arrivals
// under a reactive:4/48 jammer: the jammed overfull epochs push the
// backlog's probabilities hundreds of factor steps down and spread it
// over many buckets, so each epoch start samples many buckets.  It
// reports ns per slot.
func BenchmarkEpochsManyBuckets(b *testing.B) {
	const kappa, slots = 8, 10_000
	b.ReportAllocs()
	var d DecodableBackoff
	m := medium.JamAdversary(medium.NewCoded(kappa, 4*kappa), adversary.NewReactive(4, 48), 1)
	arrivals := rng.New(2)
	var fb channel.Feedback
	buf := make([]channel.PacketID, 0, 64)
	for i := 0; i < b.N; i++ {
		d.Reset(kappa, rng.New(uint64(i)))
		m.Reset()
		var next channel.PacketID
		for now := int64(0); now < slots; now++ {
			if arrivals.Bernoulli(0.7) {
				d.Inject(now, []channel.PacketID{next})
				next++
			}
			buf = d.Transmitters(now, buf[:0])
			m.Step(now, buf)
			m.Feedback(&fb)
			d.Observe(fb)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots), "ns/slot")
}
