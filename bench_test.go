package crn

// One benchmark per experiment in the reproduction index (DESIGN.md §5),
// each regenerating its experiment at quick scale, plus micro-benchmarks
// of the load-bearing substrates.  `go test -bench=. -benchmem` therefore
// reproduces every table/figure of the evaluation in one command;
// `cmd/experiments -scale full` produces the paper-sized versions.

import (
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, run func(experiments.Scale, uint64) *experiments.Output) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := run(experiments.Quick, uint64(i)+2022)
		if len(out.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkE1Backlog regenerates Theorem 11's backlog-bound table.
func BenchmarkE1Backlog(b *testing.B) { benchExperiment(b, experiments.E1Backlog) }

// BenchmarkE2Latency regenerates Theorem 15's latency table.
func BenchmarkE2Latency(b *testing.B) { benchExperiment(b, experiments.E2Latency) }

// BenchmarkE3Batch regenerates Theorem 16's batch-completion table and
// the throughput-vs-κ figure.
func BenchmarkE3Batch(b *testing.B) { benchExperiment(b, experiments.E3Batch) }

// BenchmarkE4Throughput regenerates the DBA-vs-baselines headline table.
func BenchmarkE4Throughput(b *testing.B) { benchExperiment(b, experiments.E4Throughput) }

// BenchmarkE5ErrorEpochs regenerates the Lemma 3/4 error-epoch figure.
func BenchmarkE5ErrorEpochs(b *testing.B) { benchExperiment(b, experiments.E5ErrorEpochs) }

// BenchmarkE6Potential regenerates the Section 4 potential-drift audit.
func BenchmarkE6Potential(b *testing.B) { benchExperiment(b, experiments.E6Potential) }

// BenchmarkE7Contention regenerates the contention-occupancy table.
func BenchmarkE7Contention(b *testing.B) { benchExperiment(b, experiments.E7Contention) }

// BenchmarkE8Decodability regenerates the RLNC decodability tables.
func BenchmarkE8Decodability(b *testing.B) { benchExperiment(b, experiments.E8Decodability) }

// BenchmarkE9ZigZag regenerates the collision-recovery table.
func BenchmarkE9ZigZag(b *testing.B) { benchExperiment(b, experiments.E9ZigZag) }

// BenchmarkE10Ablations regenerates the design-ablation tables.
func BenchmarkE10Ablations(b *testing.B) { benchExperiment(b, experiments.E10Ablations) }

// BenchmarkE11StableRate regenerates the stable-rate frontier grid.
func BenchmarkE11StableRate(b *testing.B) { benchExperiment(b, experiments.E11StableRate) }

// BenchmarkE12Detector regenerates the detector-validation tables.
func BenchmarkE12Detector(b *testing.B) { benchExperiment(b, experiments.E12Detector) }

// BenchmarkE13Jamming regenerates the jamming-robustness tables.
func BenchmarkE13Jamming(b *testing.B) { benchExperiment(b, experiments.E13Jamming) }

// BenchmarkE14WindowCap regenerates the window-cap sensitivity table.
func BenchmarkE14WindowCap(b *testing.B) { benchExperiment(b, experiments.E14WindowCap) }

// BenchmarkE15Scaling regenerates the large-batch scaling table and the
// normalized-completion figure.
func BenchmarkE15Scaling(b *testing.B) { benchExperiment(b, experiments.E15Scaling) }

// --- substrate micro-benchmarks -------------------------------------

// BenchmarkDBABatchPerPacket measures end-to-end simulation cost per
// packet for a 10k batch at κ=64 (protocol + channel + engine).
func BenchmarkDBABatchPerPacket(b *testing.B) {
	const n = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := Run(Config{Kappa: 64, Horizon: 1, Drain: true, Seed: uint64(i)},
			NewDecodableBackoff(64, uint64(i)+1), NewBatch(n))
		if res.Pending != 0 {
			b.Fatal("batch unfinished")
		}
	}
}

// BenchmarkSustainedLoadPerSlot measures steady-state cost per slot at
// 80% load, κ=64, on the coded channel — the path the medium-interface
// boundary must keep allocation-free (0 allocs/op attributable to it;
// the residual allocs are protocol-side heap growth).
func BenchmarkSustainedLoadPerSlot(b *testing.B) {
	b.ReportAllocs()
	res := Run(Config{Kappa: 64, Horizon: int64(b.N) + 1000, Seed: 1},
		NewDecodableBackoff(64, 2), NewEvenPaced(0.8))
	if res.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkClassicalPerSlot measures steady-state cost per slot on the
// classical collision channel, whose success events fire every few
// slots — the stress case for the medium's reused event storage.
func BenchmarkClassicalPerSlot(b *testing.B) {
	spec, err := ParseMedium("classical:ternary")
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Build(0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	res := Run(Config{Horizon: int64(b.N) + 1000, Seed: 1, Medium: m},
		NewGenieAloha(2, 1), NewEvenPaced(0.25))
	if res.Delivered == 0 {
		b.Fatal("nothing delivered")
	}
}
