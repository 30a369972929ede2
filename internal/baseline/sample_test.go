package baseline

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// loopSample is population.Sample as it was before it settled each
// bucket's first uniform itself: one SampleIndicesLog call per bucket.
func loopSample(p *population, r *rng.Rand, dst []channel.PacketID) []channel.PacketID {
	for _, b := range p.buckets {
		if len(b.ids) == 0 {
			continue
		}
		s := p.slot(b.base + p.shift)
		p.scratch = r.SampleIndicesLog(p.scratch[:0], len(b.ids), p.probs[s], p.logq[s])
		for _, idx := range p.scratch {
			dst = append(dst, b.ids[idx])
		}
	}
	return dst
}

// TestPopulationSampleMatchesPerBucketLoop drives populations through
// random arrivals, departures and shifts, sampling each step with
// Sample and with the per-bucket SampleIndicesLog loop from identical
// generator states: every index list and the generator state after it
// must agree.  The parameters cover mw's defaults, a ceiling of 1 (whole
// buckets selected without a draw), a fast factor and a start at the
// ceiling.
func TestPopulationSampleMatchesPerBucketLoop(t *testing.T) {
	for _, c := range []struct{ p0, factor, pMax float64 }{
		{1.0 / 8, 1.1, 0.5}, {0.1, 2, 1}, {0.25, 3, 0.9}, {1, 1.5, 1}, {1e-3, 1.01, 0.5},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			p := newPopulation(c.p0, c.factor, c.pMax)
			ops, fast, ref := rng.New(seed), rng.New(seed+100), rng.New(seed+100)
			var next channel.PacketID
			var got, want []channel.PacketID
			for step := 0; step < 5000; step++ {
				for n := ops.Intn(4); n > 0; n-- {
					p.Add(next)
					next++
				}
				got = p.Sample(fast, got[:0])
				want = loopSample(p, ref, want[:0])
				if len(got) != len(want) || fast.Uint64() != ref.Uint64() {
					t.Fatalf("%+v seed %d step %d: %d transmitters, loop %d (or the generators diverged)",
						c, seed, step, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%+v seed %d step %d: transmitter %d is %d, loop %d", c, seed, step, i, got[i], want[i])
					}
				}
				switch ops.Intn(3) {
				case 0:
					p.Shift(1)
				case 1:
					p.Shift(-1)
				}
				for _, id := range got {
					if ops.Bernoulli(0.5) {
						p.Remove(id)
					}
				}
			}
		}
	}
}

// BenchmarkMWSample times one slot's transmitter sampling on a
// multiplicative-weights backlog of 2,000 packets that arrived over
// many shifts and were then shifted down to a contention near 1, as an
// overloaded mw cell leaves it: many buckets, few transmitters.  The
// per-bucket sub-benchmark runs the SampleIndicesLog loop Sample
// replaced, on the same backlog.
func BenchmarkMWSample(b *testing.B) {
	cfg := DefaultMWConfig()
	p := newPopulation(cfg.P0, 1+cfg.Epsilon, cfg.PMax)
	r := rng.New(1)
	for id := channel.PacketID(0); id < 2000; id++ {
		p.Add(id)
		if id%50 == 49 {
			p.Shift(-1)
		}
	}
	for c, _ := p.Contention(); c > 1; c, _ = p.Contention() {
		p.Shift(-1)
	}
	for name, sample := range map[string]func(*population, *rng.Rand, []channel.PacketID) []channel.PacketID{
		"inline": (*population).Sample, "per-bucket": loopSample,
	} {
		b.Run(name, func(b *testing.B) {
			buf := make([]channel.PacketID, 0, 256)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = sample(p, r, buf[:0])
			}
			b.ReportMetric(float64(len(p.buckets)), "buckets")
		})
	}
}
