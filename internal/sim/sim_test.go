package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arena"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/jam"
	"repro/internal/medium"
	"repro/internal/nocd"
	"repro/internal/protocol"
	"repro/internal/rng"
)

func TestBatchRunDBA(t *testing.T) {
	const kappa, n = 16, 500
	res := Run(Config{Kappa: kappa, Horizon: 1, Drain: true, Seed: 1},
		core.New(kappa, rng.New(2)), &arrival.Batch{At: 0, N: n})
	if res.Arrivals != n {
		t.Fatalf("arrivals %d", res.Arrivals)
	}
	if res.Delivered != n {
		t.Fatalf("delivered %d of %d (pending %d)", res.Delivered, n, res.Pending)
	}
	if res.Pending != 0 {
		t.Fatalf("pending %d", res.Pending)
	}
	if res.CompletionThroughput() <= 0.5 {
		t.Fatalf("throughput %v suspiciously low", res.CompletionThroughput())
	}
	if res.Latency.N() != n {
		t.Fatalf("latency samples %d", res.Latency.N())
	}
	if res.LatencyQuantile(1) < res.LatencyQuantile(0.5) {
		t.Fatal("latency quantiles inconsistent")
	}
	if res.MaxBacklog != n {
		t.Fatalf("max backlog %d, want %d", res.MaxBacklog, n)
	}
	if res.String() == "" {
		t.Fatal("String empty")
	}
}

func TestConservationAcrossProtocols(t *testing.T) {
	const kappa = 8
	build := map[string]func() protocol.Protocol{
		"dba":   func() protocol.Protocol { return core.New(kappa, rng.New(3)) },
		"beb":   func() protocol.Protocol { return baseline.NewExponentialBackoff(rng.New(4)) },
		"aloha": func() protocol.Protocol { return baseline.NewGenieAloha(rng.New(5), 1) },
		"mw": func() protocol.Protocol {
			return baseline.NewMultiplicativeWeights(rng.New(6), baseline.DefaultMWConfig())
		},
	}
	for name, mk := range build {
		res := Run(Config{Kappa: kappa, Horizon: 3000, Drain: true, Seed: 7},
			mk(), &arrival.Bernoulli{Rate: 0.2})
		if res.Arrivals != res.Delivered+int64(res.Pending) {
			t.Fatalf("%s: conservation violated: %d != %d + %d",
				name, res.Arrivals, res.Delivered, res.Pending)
		}
		if res.Delivered == 0 {
			t.Fatalf("%s: nothing delivered", name)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() *Result {
		return Run(Config{Kappa: 16, Horizon: 5000, Drain: true, Seed: 11},
			core.New(16, rng.New(12)), &arrival.Bernoulli{Rate: 0.3})
	}
	a, b := mk(), mk()
	if a.Delivered != b.Delivered || a.Elapsed != b.Elapsed ||
		a.MaxBacklog != b.MaxBacklog || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatalf("same seeds diverged: %v vs %v", a, b)
	}
}

func TestFastForwardIdle(t *testing.T) {
	// A tiny batch at slot 0 and another at slot 10^7: the engine must
	// not walk every slot in between.  (If it did, this test would still
	// pass but take visibly long; we assert on the channel's accounting.)
	const kappa = 8
	batches := &twoBatches{first: 3, second: 3, secondAt: 10_000_000}
	res := Run(Config{Kappa: kappa, Horizon: 10_000_001, Drain: true, Seed: 13},
		core.New(kappa, rng.New(14)), batches)
	if res.Delivered != 6 {
		t.Fatalf("delivered %d of 6", res.Delivered)
	}
	total := res.Channel.SilentSlots + res.Channel.GoodSlots + res.Channel.BadSlots
	if total < 10_000_000 {
		t.Fatalf("slot accounting lost the idle stretch: %d", total)
	}
}

// twoBatches injects `first` packets at slot 0 and `second` at secondAt.
type twoBatches struct {
	first, second int
	secondAt      int64
}

func (b *twoBatches) Name() string { return "two-batches" }
func (b *twoBatches) Injections(now int64, _ *rng.Rand) int {
	switch now {
	case 0:
		return b.first
	case b.secondAt:
		return b.second
	}
	return 0
}
func (b *twoBatches) NextAfter(now int64) int64 {
	switch {
	case now < 0:
		return 0
	case now < b.secondAt:
		return b.secondAt
	}
	return -1
}

func TestWakerFastForward(t *testing.T) {
	// BEB implements Waker; a lone packet with a huge backoff window must
	// not cost per-slot work.  Verify slots accounting stays exact.
	e := baseline.NewExponentialBackoff(rng.New(15))
	res := Run(Config{Kappa: 1, Horizon: 1, Drain: true, Seed: 16},
		e, &arrival.Batch{At: 0, N: 5})
	if res.Delivered != 5 {
		t.Fatalf("delivered %d of 5", res.Delivered)
	}
	total := res.Channel.SilentSlots + res.Channel.GoodSlots + res.Channel.BadSlots
	if total != res.Elapsed {
		t.Fatalf("slot accounting %d != elapsed %d", total, res.Elapsed)
	}
}

func TestHorizonZero(t *testing.T) {
	res := Run(Config{Kappa: 8, Horizon: 0, Seed: 1},
		core.New(8, rng.New(1)), &arrival.Batch{At: 0, N: 5})
	if res.Arrivals != 0 || res.Elapsed != 0 {
		t.Fatalf("horizon-0 run did something: %+v", res)
	}
}

func TestNoDrainLeavesBacklog(t *testing.T) {
	res := Run(Config{Kappa: 8, Horizon: 3, Seed: 1},
		core.New(8, rng.New(1)), &arrival.Batch{At: 0, N: 100})
	if res.Pending == 0 {
		t.Fatal("100 packets cannot complete in 3 slots")
	}
	if res.Elapsed != 3 {
		t.Fatalf("elapsed %d, want 3", res.Elapsed)
	}
}

func TestDrainLimitRespected(t *testing.T) {
	// An overloaded system must stop at Horizon+DrainLimit.
	res := Run(Config{Kappa: 8, Horizon: 100, Drain: true, DrainLimit: 50, Seed: 2},
		baseline.NewSlottedAloha(rng.New(3), 0.9), // hopeless: constant collisions
		&arrival.Batch{At: 0, N: 50})
	if res.Elapsed > 150 {
		t.Fatalf("drain limit ignored: elapsed %d", res.Elapsed)
	}
}

// sleepyWaker holds its packets forever and declares a next wake far past
// any drain budget — the pathological Waker for the drain clamp.
type sleepyWaker struct{ pending int }

func (s *sleepyWaker) Name() string                           { return "sleepy" }
func (s *sleepyWaker) Inject(_ int64, ids []channel.PacketID) { s.pending += len(ids) }
func (s *sleepyWaker) Observe(channel.Feedback)               {}
func (s *sleepyWaker) Pending() int                           { return s.pending }
func (s *sleepyWaker) NextWake(now int64) int64               { return now + 1<<40 }
func (s *sleepyWaker) Transmitters(_ int64, buf []channel.PacketID) []channel.PacketID {
	return buf
}

func TestDrainClampsWakerFastForward(t *testing.T) {
	// A protocol whose NextWake sleeps far ahead must not push Elapsed (or
	// the silent-slot accounting) past Horizon+DrainLimit.
	res := Run(Config{Kappa: 8, Horizon: 10, Drain: true, DrainLimit: 100, Seed: 1},
		&sleepyWaker{}, &arrival.Batch{At: 0, N: 1})
	if res.Elapsed > 110 {
		t.Fatalf("elapsed %d overshoots Horizon+DrainLimit=110", res.Elapsed)
	}
	total := res.Channel.SilentSlots + res.Channel.GoodSlots + res.Channel.BadSlots
	if total != res.Elapsed {
		t.Fatalf("slot accounting %d != elapsed %d", total, res.Elapsed)
	}
}

func TestNegativeDrainLimitTerminates(t *testing.T) {
	// A negative DrainLimit means "no drain budget": the run must end at
	// the horizon, not hang with the fast-forward clamp pinned at now.
	res := Run(Config{Kappa: 8, Horizon: 10, Drain: true, DrainLimit: -100, Seed: 1},
		&sleepyWaker{}, &arrival.Batch{At: 0, N: 1})
	if res.Elapsed > 10 {
		t.Fatalf("elapsed %d, want ≤ horizon 10", res.Elapsed)
	}
	if res.Pending != 1 {
		t.Fatalf("pending %d, want 1", res.Pending)
	}
}

func TestSegmentMeanBacklog(t *testing.T) {
	res := Run(Config{Kappa: 16, Horizon: 20000, Seed: 4},
		core.New(16, rng.New(5)), &arrival.Bernoulli{Rate: 0.3})
	early := res.SegmentMeanBacklog(0.1, 0.5)
	late := res.SegmentMeanBacklog(0.5, 1.0)
	if early < 0 || late < 0 {
		t.Fatal("negative backlog segment")
	}
	// At rate 0.3 with kappa 16 the system is stable: late backlog must
	// not be drastically larger than early.
	if late > 20*math.Max(early, 5) {
		t.Fatalf("backlog diverging at low load: early %v late %v", early, late)
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"kappa": func() {
			Run(Config{Kappa: 0, Horizon: 1}, core.New(8, rng.New(1)), arrival.None{})
		},
		"horizon": func() {
			Run(Config{Kappa: 8, Horizon: -1}, core.New(8, rng.New(1)), arrival.None{})
		},
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

func TestMaxWindowDefaults(t *testing.T) {
	cfg := Config{Kappa: 16}
	if cfg.Window() != 64 {
		t.Fatalf("default maxWindow %d, want 64", cfg.Window())
	}
	cfg.MaxWindow = NoWindowCap
	if cfg.Window() != 0 {
		t.Fatalf("NoWindowCap maxWindow %d, want 0", cfg.Window())
	}
	cfg.MaxWindow = 7
	if cfg.Window() != 7 {
		t.Fatalf("explicit maxWindow %d", cfg.Window())
	}
}

func TestAdaptiveArrivalObserved(t *testing.T) {
	// The disruptor must actually see channel feedback through the engine.
	dis := &arrival.Disruptor{BurstSize: 2}
	capped := arrival.NewCap(dis, 100, 10)
	res := Run(Config{Kappa: 8, Horizon: 2000, Drain: true, Seed: 6},
		core.New(8, rng.New(7)), capped)
	if res.Arrivals == 0 {
		t.Fatal("disruptor never injected (feedback not forwarded?)")
	}
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Fatal("conservation violated with adaptive arrivals")
	}
}

func TestRunTrialsDeterministicAndParallel(t *testing.T) {
	f := func(trial int, seed uint64) *Result {
		return Run(Config{Kappa: 16, Horizon: 2000, Drain: true, Seed: seed},
			core.New(16, rng.New(seed^0x9e37)), &arrival.Bernoulli{Rate: 0.4})
	}
	serial := RunTrials(8, 42, 1, f)
	parallel := RunTrials(8, 42, 4, f)
	for i := range serial {
		if serial[i].Delivered != parallel[i].Delivered ||
			serial[i].Elapsed != parallel[i].Elapsed {
			t.Fatalf("trial %d: serial/parallel mismatch", i)
		}
	}
	agg := Aggregate(serial, func(r *Result) float64 { return float64(r.Delivered) })
	if agg.N() != 8 || agg.Mean() <= 0 {
		t.Fatalf("aggregate %v", agg)
	}
}

func TestRunSeededTrialsMatchesRunTrials(t *testing.T) {
	// A subset run (a sweep shard, a cache resume) seeds trials from the
	// full list TrialSeeds derives — trial i under RunSeededTrials must
	// reproduce trial i under RunTrials exactly.
	f := func(trial int, seed uint64) *Result {
		return Run(Config{Kappa: 16, Horizon: 1000, Drain: true, Seed: seed},
			core.New(16, rng.New(seed^0x9e37)), &arrival.Bernoulli{Rate: 0.4})
	}
	seeds := TrialSeeds(6, 42)
	whole := RunTrials(6, 42, 2, f)
	subset := RunSeededTrials(seeds[2:5], 2, f)
	for i, r := range subset {
		if want := whole[i+2]; r.Delivered != want.Delivered || r.Elapsed != want.Elapsed {
			t.Fatalf("seeded trial %d diverged from full-run trial %d", i, i+2)
		}
	}
	if RunSeededTrials(nil, 4, f) != nil {
		t.Fatal("zero seeds should return nil")
	}
	if TrialSeeds(0, 1) != nil {
		t.Fatal("zero trials should derive no seeds")
	}
}

func TestRunTrialsEdgeCases(t *testing.T) {
	if RunTrials(0, 1, 1, nil) != nil {
		t.Fatal("zero trials should return nil")
	}
	res := RunTrials(3, 1, 100, func(trial int, seed uint64) *Result {
		return &Result{Delivered: int64(trial)}
	})
	for i, r := range res {
		if r.Delivered != int64(i) {
			t.Fatalf("results out of order: %v", res)
		}
	}
}

// workerGrid is a protocol × medium × adversary scenario set spanning
// the engine's paths: the DBA core (coast), both backoff shapes (Waker
// fast-forward), classical and capture media, legacy jammers, adaptive
// jammers, arrival adversaries, and the no-CD schemes.
var workerGrid = []struct {
	name string
	run  func() *Result
}{
	{"dba/coded/batch", func() *Result {
		return Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 11},
			core.New(16, rng.New(101)), &arrival.Batch{At: 0, N: 3000})
	}},
	{"dba/coded/bernoulli+random-jam", func() *Result {
		return Run(Config{Kappa: 16, Horizon: 20000, Drain: true, Seed: 12,
			Jammer: &jam.Random{Rate: 0.2}},
			core.New(16, rng.New(102)), &arrival.Bernoulli{Rate: 0.3})
	}},
	{"dba/coded/reactive-adaptive", func() *Result {
		return Run(Config{Kappa: 16, Horizon: 15000, Drain: true, Seed: 13,
			Adversary: adversary.NewReactive(1, 16)},
			core.New(16, rng.New(103)), &arrival.Bernoulli{Rate: 0.25})
	}},
	{"dba/coded/sigma-rho", func() *Result {
		return Run(Config{Kappa: 16, Horizon: 15000, Drain: true, Seed: 14,
			Adversary: adversary.NewSigmaRho(64, 0.2)},
			core.New(16, rng.New(104)), &arrival.Bernoulli{Rate: 0.2})
	}},
	{"beb/coded/batch-waker", func() *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 15},
			baseline.NewExponentialBackoff(rng.New(105)), &arrival.Batch{At: 0, N: 64})
	}},
	{"beb/coded/periodic-jam-waker", func() *Result {
		return Run(Config{Kappa: 8, Horizon: 4096, Drain: true, Seed: 16,
			Jammer: &jam.Periodic{Period: 64, Burst: 8}},
			baseline.NewExponentialBackoff(rng.New(106)), &arrival.Batch{At: 0, N: 48})
	}},
	{"poly/coded/batch-waker", func() *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 17},
			baseline.NewPolynomialBackoff(rng.New(107), 2), &arrival.Batch{At: 0, N: 64})
	}},
	{"beb/classical-ternary/even", func() *Result {
		return Run(Config{Horizon: 8192, Drain: true, Seed: 18,
			Medium: medium.NewClassical(medium.CDTernary)},
			baseline.NewExponentialBackoff(rng.New(108)), arrival.NewEvenPaced(0.2))
	}},
	{"genie/coded/serial-fallback", func() *Result {
		return Run(Config{Kappa: 4, Horizon: 4096, Drain: true, Seed: 19},
			baseline.NewGenieAloha(rng.New(109), 1), arrival.NewEvenPaced(0.25))
	}},
	{"robust/classical-none/batch", func() *Result {
		return Run(Config{Horizon: 1, Drain: true, Seed: 20,
			Medium: medium.NewClassical(medium.CDNone)},
			nocd.NewRobust(rng.New(110)), &arrival.Batch{At: 0, N: 200})
	}},
	{"unbounded/classical-none/bernoulli", func() *Result {
		return Run(Config{Horizon: 6000, Drain: true, Seed: 21,
			Medium: medium.NewClassical(medium.CDNone)},
			nocd.NewUnbounded(rng.New(111)), &arrival.Bernoulli{Rate: 0.02})
	}},
	{"unbounded/capture/batch", func() *Result {
		return Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 22,
			Medium: medium.NewCapture(8)},
			nocd.NewUnbounded(rng.New(112)), &arrival.Batch{At: 0, N: 500})
	}},
	{"beb/capture/bernoulli+random-jam", func() *Result {
		return Run(Config{Kappa: 4, Horizon: 8000, Drain: true, Seed: 23,
			Medium: medium.NewCapture(4), Jammer: &jam.Random{Rate: 0.1}},
			baseline.NewExponentialBackoff(rng.New(113)), &arrival.Bernoulli{Rate: 0.2})
	}},
	{"mw/capture/reactive-adaptive", func() *Result {
		return Run(Config{Kappa: 4, Horizon: 8000, Drain: true, Seed: 24,
			Medium: medium.NewCapture(4), Adversary: adversary.NewReactive(4, 16)},
			baseline.NewMultiplicativeWeights(rng.New(114), baseline.DefaultMWConfig()),
			&arrival.Bernoulli{Rate: 0.15})
	}},
}

// TestWorkersResultEquality runs every workerGrid scenario as identical
// trials on 1, 3 and GOMAXPROCS concurrent trial workers
// (RunSeededTrials, the path RunTrials and sweeps take), and requires
// every trial to reproduce the scenario's plain Run byte for byte:
// trial-level parallelism must never leak state between runs.
func TestWorkersResultEquality(t *testing.T) {
	for _, sc := range workerGrid {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref := resultDigest(sc.run())
			for _, w := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				trials := RunSeededTrials(make([]uint64, w), w, func(int, uint64) *Result { return sc.run() })
				for i, r := range trials {
					if resultDigest(r) != ref {
						t.Errorf("trial %d of %d concurrent trials diverged from the serial run", i, w)
					}
				}
			}
		})
	}
}

func TestLatencyOmittedWhenSamplingOff(t *testing.T) {
	res := Run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 1, LatencySamples: LatencySamplesOff},
		core.New(8, rng.New(1)), &arrival.Batch{At: 0, N: 10})
	if res.LatencySample != nil {
		t.Fatal("latency sample retained with sampling off")
	}
	if !math.IsNaN(res.LatencyQuantile(0.5)) {
		t.Fatal("quantile with sampling off should be NaN")
	}
	if res.Latency.N() != 10 {
		t.Fatal("summary should still accumulate")
	}
}

func TestLatencySampleBoundedAndExactBelowCap(t *testing.T) {
	// Default config: the reservoir holds every delivery while the run
	// fits the capacity (exact quantiles), and a tiny explicit capacity
	// bounds retention below the delivery count.
	res := Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 2},
		core.New(16, rng.New(3)), &arrival.Batch{At: 0, N: 300})
	if res.LatencySample == nil || res.LatencySample.Len() != 300 || !res.LatencySample.Exact() {
		t.Fatalf("default reservoir should hold all 300 latencies: %+v", res.LatencySample)
	}
	small := Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 2, LatencySamples: 32},
		core.New(16, rng.New(3)), &arrival.Batch{At: 0, N: 300})
	if small.LatencySample.Len() != 32 || small.LatencySample.N() != 300 {
		t.Fatalf("capped reservoir retained %d of %d", small.LatencySample.Len(), small.LatencySample.N())
	}
	if q := small.LatencyQuantile(0.5); math.IsNaN(q) || q < 1 {
		t.Fatalf("subsampled quantile %v", q)
	}
}

func TestBookkeepingBoundedByBacklog(t *testing.T) {
	// 10^5 arrivals paced at rate 0.5 under κ=64: the backlog stays
	// small, and the engine's per-packet bookkeeping must track the
	// backlog — entries freed on delivery — not the arrival total.
	res := Run(Config{Kappa: 64, Horizon: 200_000, Drain: true, Seed: 3},
		core.New(64, rng.New(4)), arrival.NewEvenPaced(0.5))
	if res.Arrivals < 99_000 {
		t.Fatalf("arrivals %d, want ~100000", res.Arrivals)
	}
	// Peak in-flight is measured at injection, before the slot's
	// deliveries; MaxBacklog after them.  They can differ by at most one
	// slot's arrivals plus one decoding event (≤ 4κ packets).
	if slack := res.MaxBacklog + 4*64 + 1; res.PeakInFlight > slack {
		t.Fatalf("bookkeeping peak %d not bounded by backlog %d (+slack)",
			res.PeakInFlight, res.MaxBacklog)
	}
	if int64(res.PeakInFlight)*20 > res.Arrivals {
		t.Fatalf("bookkeeping peak %d scales with arrivals %d, not backlog %d",
			res.PeakInFlight, res.Arrivals, res.MaxBacklog)
	}
	if res.LatencySample.Len() > DefaultLatencySamples {
		t.Fatalf("latency retention %d exceeds the reservoir cap", res.LatencySample.Len())
	}
}

func TestLargeBatchBoundedBookkeeping(t *testing.T) {
	// The Theorem 16 asymptotic regime: a 10^6-packet batch at κ=64 must
	// complete with per-packet bookkeeping bounded by the backlog peak
	// (== n for a batch) and latency retention bounded by the reservoir —
	// the scales the former O(arrivals) Latencies slice made impractical.
	//
	// It also bounds the bytes the batch allocates (≈71 MB): an arena
	// page table reallocated on every re-anchor, or batch-sized slices
	// grown by doubling, allocate several times that.
	const n, kappa = 1_000_000, 64
	const maxAllocMB = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := Run(Config{Kappa: kappa, Horizon: 1, Drain: true,
		DrainLimit: 8*n + 1<<20, Seed: 5},
		core.New(kappa, rng.New(6)), &arrival.Batch{At: 0, N: n})
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > maxAllocMB {
		t.Fatalf("batch of %d allocated %.1f MB, want <= %d MB", n, mb, maxAllocMB)
	} else {
		t.Logf("batch of %d allocated %.1f MB", n, mb)
	}
	if res.Delivered != n || res.Pending != 0 {
		t.Fatalf("delivered %d of %d (pending %d)", res.Delivered, n, res.Pending)
	}
	if res.PeakInFlight != n || res.PeakInFlight > res.MaxBacklog {
		t.Fatalf("bookkeeping peak %d, max backlog %d, want both %d (O(MaxBacklog) bound)",
			res.PeakInFlight, res.MaxBacklog, n)
	}
	if res.LatencySample.Len() != DefaultLatencySamples {
		t.Fatalf("latency retention %d, want the %d-slot reservoir cap",
			res.LatencySample.Len(), DefaultLatencySamples)
	}
	bound := float64(n)*(1+10.0/kappa) + 4*kappa
	if got := float64(res.LastDelivery + 1); got > bound {
		t.Fatalf("completion %v exceeds the Theorem 16 bound %v", got, bound)
	}
}

func TestPerSlotPathAllocationFree(t *testing.T) {
	// The steady-state per-slot path must not allocate: extending the
	// horizon 10× may add only setup-independent noise, not per-slot
	// allocations.  (This is the testable form of the benchmark guard —
	// BenchmarkClassicalPerSlot's 0 allocs/op — and it would fail with
	// the former O(arrivals) latency retention, whose slice doublings
	// land in the horizon-dependent delta.)
	run := func(horizon int64) func() {
		return func() {
			res := Run(Config{Horizon: horizon, Seed: 1,
				Medium: medium.NewClassical(medium.CDTernary)},
				baseline.NewGenieAloha(rng.New(2), 1), arrival.NewEvenPaced(0.25))
			if res.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		}
	}
	short := testing.AllocsPerRun(3, run(20_000))
	long := testing.AllocsPerRun(3, run(200_000))
	if perSlot := (long - short) / 180_000; perSlot > 0.01 {
		t.Fatalf("per-slot path allocates: %.4f allocs/slot (short %v, long %v)",
			perSlot, short, long)
	}
}

// TestWarmRunnerAllocatesNoBuffers pins what a Runner carries between
// runs.  Re-running on a warmed Runner must allocate fewer objects than
// a fresh sim.Run by at least the in-flight pages a 16384-packet batch
// maps, and, on a run of ~4096 deliveries whose backlog fits one page,
// by at least the append steps that grow the reservoir to hold them.
func TestWarmRunnerAllocatesNoBuffers(t *testing.T) {
	type runFunc func(Config, protocol.Protocol, arrival.Process) *Result
	appendSteps := func(n int) (steps int) {
		var s []float64
		for i := 0; i < n; i++ {
			if len(s) == cap(s) {
				steps++
			}
			s = append(s, 0)
		}
		return steps
	}
	for _, tc := range []struct {
		name string
		run  func(runFunc) *Result
		want func(*Result) int // allocations a warmed Runner must save
	}{
		{"in-flight pages", func(run runFunc) *Result {
			return run(Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 7, LatencySamples: LatencySamplesOff},
				core.New(8, rng.New(8)), &arrival.Batch{At: 0, N: 16384})
		}, func(res *Result) int { return res.PeakInFlight / arena.PageSize }},
		{"reservoir storage", func(run runFunc) *Result {
			return run(Config{Horizon: 16384, Seed: 7, Medium: medium.NewClassical(medium.CDTernary)},
				baseline.NewGenieAloha(rng.New(8), 1), arrival.NewEvenPaced(0.25))
		}, func(res *Result) int { return appendSteps(res.LatencySample.Len()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want(tc.run(Run))
			fresh := testing.AllocsPerRun(3, func() { tc.run(Run) })
			var r Runner
			warm := testing.AllocsPerRun(3, func() { tc.run(r.Run) }) // its warm-up call warms r
			if saved := fresh - warm; saved < float64(want) {
				t.Fatalf("a warmed Runner allocates %v objects per run, a fresh Run %v: saved %v, want >= %d",
					warm, fresh, saved, want)
			}
		})
	}
}

// TestChannelDetectorEquivalenceEndToEnd replays a full DBA run through
// the brute-force Definition 1 reference detector.
func TestChannelDetectorEquivalenceEndToEnd(t *testing.T) {
	const kappa = 8
	d := core.New(kappa, rng.New(21))
	fast := channel.New(kappa, 4*kappa)
	ref := channel.NewReference(kappa, 4*kappa)
	var nextID channel.PacketID
	buf := make([]channel.PacketID, 0, 64)
	for now := int64(0); now < 4000; now++ {
		if now%4 == 0 && now < 3000 {
			d.Inject(now, []channel.PacketID{nextID})
			nextID++
		}
		buf = d.Transmitters(now, buf[:0])
		fc, fe := fast.Step(now, buf)
		rc, re := ref.Step(now, buf)
		if fc != rc || (fe == nil) != (re == nil) {
			t.Fatalf("slot %d: detector divergence", now)
		}
		if fe != nil && fe.Size() != re.Size() {
			t.Fatalf("slot %d: event size %d vs %d", now, fe.Size(), re.Size())
		}
		d.Observe(channel.Feedback{Slot: now, Silent: fc == channel.Silent, Event: fe})
	}
}

func TestJammedRunConservation(t *testing.T) {
	res := Run(Config{Kappa: 16, Horizon: 5000, Drain: true, Seed: 31,
		Jammer: &jam.Random{Rate: 0.3}},
		core.New(16, rng.New(32)), &arrival.Bernoulli{Rate: 0.3})
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Fatalf("conservation violated under jamming: %d != %d + %d",
			res.Arrivals, res.Delivered, res.Pending)
	}
	if res.Channel.JammedSlots == 0 {
		t.Fatal("jammer never fired")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under 30% jamming at load 0.3")
	}
}

// noWake hides a protocol's Waker implementation so the engine steps
// every slot instead of fast-forwarding idle stretches.
type noWake struct{ protocol.Protocol }

func TestJammerAlignedAcrossFastForward(t *testing.T) {
	// Jam decisions are slot-keyed, so a run must take the same jam
	// pattern — and deliver the same packets at the same times — whether
	// or not the engine fast-forwards through the protocol's idle
	// stretches.  (Slot-class accounting is excluded: a fast-forwarded
	// stretch is accounted silent by definition, while the stepped run
	// consults the jammer on those empty slots.)
	run := func(fastForward bool) *Result {
		var proto protocol.Protocol = baseline.NewExponentialBackoff(rng.New(91))
		if !fastForward {
			proto = noWake{proto}
		}
		// A batch at slot 0 makes everything after it a drain: BEB sleeps
		// between retries, so the fast run skips long stretches the slow
		// run steps one by one.
		return Run(Config{Kappa: 1, Horizon: 1, Drain: true, Seed: 92,
			Jammer: &jam.Random{Rate: 0.25}},
			proto, &arrival.Batch{At: 0, N: 8})
	}
	fast, slow := run(true), run(false)
	if fast.Delivered == 0 {
		t.Fatal("nothing delivered under jamming")
	}
	if fast.Delivered != slow.Delivered || fast.Elapsed != slow.Elapsed ||
		fast.MaxBacklog != slow.MaxBacklog ||
		fast.Latency.Mean() != slow.Latency.Mean() {
		t.Fatalf("jammer stream misaligned across fast-forwarding:\n  fast: %v\n  slow: %v", fast, slow)
	}
}

func TestAdaptiveJammerAlignedAcrossFastForward(t *testing.T) {
	// The adaptive reactive jammer carries feedback-driven state, so its
	// alignment across fast-forwarding rests on the adversary determinism
	// contract (armed windows keyed to slot numbers, gaps treated as
	// silence) rather than on slot-keyed randomness alone.  As with the
	// oblivious jammer above, a run must deliver the same packets at the
	// same times whether or not the engine skips the protocol's idle
	// stretches.
	run := func(fastForward bool) *Result {
		var proto protocol.Protocol = baseline.NewExponentialBackoff(rng.New(71))
		if !fastForward {
			proto = noWake{proto}
		}
		return Run(Config{Kappa: 1, Horizon: 1, Drain: true, Seed: 72,
			Adversary: adversary.NewReactive(1, 16)},
			proto, &arrival.Batch{At: 0, N: 8})
	}
	fast, slow := run(true), run(false)
	if fast.Delivered != 8 {
		t.Fatalf("delivered %d of 8 under the reactive jammer", fast.Delivered)
	}
	if fast.Delivered != slow.Delivered || fast.Elapsed != slow.Elapsed ||
		fast.MaxBacklog != slow.MaxBacklog ||
		fast.Latency.Mean() != slow.Latency.Mean() {
		t.Fatalf("adaptive jammer misaligned across fast-forwarding:\n  fast: %v\n  slow: %v", fast, slow)
	}
	if fast.Channel.JammedSlots == 0 {
		t.Fatal("reactive jammer never fired (collisions should have armed it)")
	}
	if fast.Medium != "coded+jam:reactive(1/16)" {
		t.Fatalf("medium name %q", fast.Medium)
	}
}

func TestSigmaRhoAdversaryMergesWithArrivals(t *testing.T) {
	// An arrival adversary composes with the benign process: the run
	// serves the union, conservation holds, and the σ burst lands at
	// slot 0 on top of the paced stream.
	base := arrival.NewEvenPaced(0.1)
	res := Run(Config{Kappa: 16, Horizon: 4000, Drain: true, Seed: 41,
		Adversary: &adversary.SigmaRho{Sigma: 64, Rho: 0.05}},
		core.New(16, rng.New(42)), base)
	// even 0.1 over 4000 slots = 400; sigmarho σ=64 + ρ·0.05 ≈ 64+200.
	if res.Arrivals < 600 || res.Arrivals > 700 {
		t.Fatalf("arrivals %d, want ≈ 664 (benign 400 + adversary ≈ 264)", res.Arrivals)
	}
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Fatalf("conservation violated: %d != %d + %d",
			res.Arrivals, res.Delivered, res.Pending)
	}
	if res.MaxBacklog < 64 {
		t.Fatalf("max backlog %d: the σ=64 front-loaded burst never landed", res.MaxBacklog)
	}
	if res.Arrival != "even(0.100)+sigmarho(64/0.050)" {
		t.Fatalf("arrival name %q", res.Arrival)
	}
}

func TestLegacyJammerAndAdversaryCompose(t *testing.T) {
	// Config.Jammer (legacy) and Config.Adversary stack: both spoil
	// slots, their randomness decorrelated by distinct salts, and the
	// medium name records the composition order.
	res := Run(Config{Kappa: 8, Horizon: 3000, Drain: true, Seed: 51,
		Jammer:    &jam.Random{Rate: 0.05},
		Adversary: &adversary.BurstGap{Burst: 20, Gap: 180}},
		core.New(8, rng.New(52)), &arrival.Bernoulli{Rate: 0.2})
	if res.Medium != "coded+jam:random(0.050)+jam:burst(20/180)" {
		t.Fatalf("medium name %q", res.Medium)
	}
	if res.Channel.JammedSlots == 0 {
		t.Fatal("no slot jammed by either layer")
	}
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Fatal("conservation violated under stacked jamming")
	}
}

func TestAdaptiveAdversaryRejectsLegacyJammerStack(t *testing.T) {
	// The legacy jammer spoils slots the engine skips as provably
	// silent, so an adaptive adversary over it cannot keep its
	// gap-equals-silence contract; Run must reject the combination
	// rather than silently produce fast-forward-dependent results.
	defer func() {
		if recover() == nil {
			t.Fatal("adaptive adversary over Config.Jammer was accepted")
		}
	}()
	Run(Config{Kappa: 8, Horizon: 100, Seed: 1,
		Jammer:    &jam.Random{Rate: 0.3},
		Adversary: adversary.NewReactive(2, 16)},
		core.New(8, rng.New(2)), &arrival.Batch{At: 0, N: 4})
}

func TestAdaptiveAdversaryRejectsSilenceMaskingMedium(t *testing.T) {
	// classical:none reports every idle stepped slot as busy, so an
	// adaptive adversary's gap-equals-silence rule cannot hold; Run must
	// reject the pairing (the sweep layer already skips it).
	defer func() {
		if recover() == nil {
			t.Fatal("adaptive adversary over classical:none was accepted")
		}
	}()
	Run(Config{Horizon: 100, Seed: 1,
		Medium:    medium.NewClassical(medium.CDNone),
		Adversary: adversary.NewReactive(2, 16)},
		baseline.NewExponentialBackoff(rng.New(2)), &arrival.Batch{At: 0, N: 4})
}

func TestAdaptiveAdversaryRejectsPreJammedMedium(t *testing.T) {
	// The guard inspects the composed medium, so a jammer baked into
	// Config.Medium (rather than Config.Jammer) is caught too.
	defer func() {
		if recover() == nil {
			t.Fatal("adaptive adversary over a pre-jammed medium was accepted")
		}
	}()
	inner := medium.NewCoded(8, 0)
	Run(Config{Horizon: 100, Seed: 1,
		Medium:    medium.Jam(inner, &jam.Random{Rate: 0.3}, 5),
		Adversary: adversary.NewReactive(2, 16)},
		baseline.NewExponentialBackoff(rng.New(2)), &arrival.Batch{At: 0, N: 4})
}
