package crn

import (
	"context"
	"math"
	"testing"

	"repro/internal/sweep"
)

func TestQuickstartFlow(t *testing.T) {
	const kappa, n = 64, 2000
	res := Run(Config{Kappa: kappa, Horizon: 1, Drain: true, Seed: 2},
		NewDecodableBackoff(kappa, 1), NewBatch(n))
	if res.Delivered != n || res.Pending != 0 {
		t.Fatalf("delivered %d pending %d", res.Delivered, res.Pending)
	}
	if thpt := res.CompletionThroughput(); thpt < 0.85 || thpt > 1 {
		t.Fatalf("throughput %v out of expected range", thpt)
	}
}

func TestFacadeProtocols(t *testing.T) {
	const n = 200
	protos := map[string]Protocol{
		"dba":   NewDecodableBackoff(16, 3),
		"beb":   NewExponentialBackoff(4),
		"aloha": NewSlottedAloha(5, 0.01),
		"genie": NewGenieAloha(6, 1),
		"mw":    NewMultiplicativeWeights(7),
	}
	for name, p := range protos {
		kappa := 16
		if name != "dba" {
			kappa = 1
		}
		res := Run(Config{Kappa: kappa, Horizon: 1, Drain: true, DrainLimit: 1 << 22, Seed: 8},
			p, NewBatch(n))
		if res.Delivered != n {
			t.Fatalf("%s delivered %d of %d", name, res.Delivered, n)
		}
	}
}

func TestFacadeArrivals(t *testing.T) {
	arrs := map[string]Arrivals{
		"batch":     NewBatch(10),
		"batchAt":   NewBatchAt(5, 10),
		"bernoulli": NewBernoulli(0.2),
		"poisson":   NewPoisson(0.2),
		"even":      NewEvenPaced(0.2),
		"burst":     NewWindowBurst(100, 20),
		"capped":    NewCappedArrivals(NewPoisson(0.5), 100, 20),
		"disruptor": NewCappedArrivals(NewDisruptor(5), 100, 10),
	}
	for name, a := range arrs {
		res := Run(Config{Kappa: 16, Horizon: 2000, Drain: true, Seed: 9},
			NewDecodableBackoff(16, 10), a)
		if res.Arrivals != res.Delivered+int64(res.Pending) {
			t.Fatalf("%s: conservation violated", name)
		}
	}
}

func TestFacadeOptions(t *testing.T) {
	p := NewDecodableBackoff(16, 1,
		WithUpdateFactor(2),
		WithInitialProb(0.5),
		WithoutAdmissionControl(),
		WithEpochObserver(func(EpochInfo) {}))
	res := Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 2}, p, NewBatch(50))
	if res.Delivered != 50 {
		t.Fatalf("optioned DBA delivered %d", res.Delivered)
	}
}

func TestTheoremHelpers(t *testing.T) {
	if TheoremRate(1024) <= 0 {
		t.Fatal("rate at 1024 should be positive")
	}
	if TheoremMinWindow(64) != 16*64*64 {
		t.Fatal("min window wrong")
	}
	if Potential(64, 0, 0, 0, 1) != 0 {
		t.Fatal("empty-system potential nonzero")
	}
	if Potential(64, 10, 0, 0, 1) != 10 {
		t.Fatal("potential should equal N for calm system")
	}
}

func TestRunTrialsFacade(t *testing.T) {
	results := RunTrials(4, 99, 2, func(trial int, seed uint64) *Result {
		return Run(Config{Kappa: 16, Horizon: 1, Drain: true, Seed: seed},
			NewDecodableBackoff(16, seed), NewBatch(100))
	})
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Delivered != 100 {
			t.Fatalf("trial %d delivered %d", i, r.Delivered)
		}
	}
}

func TestChannelFacade(t *testing.T) {
	ch := NewChannel(4, 0)
	if _, ev := ch.Step(0, []PacketID{1}); ev == nil || ev.Size() != 1 {
		t.Fatal("lone transmitter not decoded")
	}
}

func TestMediumFacade(t *testing.T) {
	// Every baseline runs on the classical collision channel — the model
	// it was designed for.
	const n = 200
	protos := map[string]Protocol{
		"beb":   NewExponentialBackoff(4),
		"genie": NewGenieAloha(6, 1),
		"mw":    NewMultiplicativeWeights(7),
	}
	build := func(desc string, kappa, maxWindow int) Medium {
		t.Helper()
		spec, err := ParseMedium(desc)
		if err != nil {
			t.Fatal(err)
		}
		m, err := spec.Build(kappa, maxWindow)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		return m
	}
	for name, p := range protos {
		res := Run(Config{Horizon: 1, Drain: true, DrainLimit: 1 << 22, Seed: 8,
			Medium: build("classical:ternary", 0, 0)}, p, NewBatch(n))
		if res.Delivered != n {
			t.Fatalf("%s on classical delivered %d of %d", name, res.Delivered, n)
		}
		if res.Kappa != 1 || res.Medium != "classical:ternary" {
			t.Fatalf("%s: result identity %q κ=%d", name, res.Medium, res.Kappa)
		}
	}
	for _, model := range ModelNames {
		build(model, 8, 32)
	}
	// The coded medium can be passed explicitly, and a jammer composes
	// over it: 2 jammed slots in every 10.
	res := Run(Config{Horizon: 1, Drain: true, Seed: 9, Medium: build("coded:16/64", 0, 0),
		Adversary: NewBurstJammer(2, 8)}, NewDecodableBackoff(16, 10), NewBatch(n))
	if res.Delivered != n {
		t.Fatalf("jammed coded medium delivered %d of %d", res.Delivered, n)
	}
	if res.Channel.JammedSlots == 0 {
		t.Fatal("periodic jammer never fired")
	}
}

func TestThroughputApproachesOne(t *testing.T) {
	// The library's headline: throughput rises with kappa.
	var prev float64
	for _, kappa := range []int{8, 64, 512} {
		res := Run(Config{Kappa: kappa, Horizon: 1, Drain: true, Seed: 3},
			NewDecodableBackoff(kappa, 4), NewBatch(4000))
		thpt := res.CompletionThroughput()
		if thpt < prev-0.05 { // allow small noise
			t.Fatalf("throughput fell from %v to %v at kappa=%d", prev, thpt, kappa)
		}
		prev = thpt
	}
	if prev < 0.9 {
		t.Fatalf("throughput at kappa=512 only %v", prev)
	}
	if math.Abs(prev-1) > 0.12 {
		t.Fatalf("throughput at kappa=512 not near 1: %v", prev)
	}
}

func TestAdversaryFacade(t *testing.T) {
	// Every facade constructor must parse-roundtrip through
	// ParseAdversary and compose into a run via Config.Adversary.
	for desc, want := range map[string]string{
		"reactive:4/32":   "reactive(4/32)",
		"burst:50/450":    "burst(50/450)",
		"random:0.2":      "random(0.200)",
		"sigmarho:64/0.1": "sigmarho(64/0.100)",
	} {
		adv, err := ParseAdversary(desc)
		if err != nil {
			t.Fatalf("ParseAdversary(%q): %v", desc, err)
		}
		if adv.Name() != want {
			t.Fatalf("ParseAdversary(%q).Name() = %q, want %q", desc, adv.Name(), want)
		}
	}
	if adv, err := ParseAdversary("none"); err != nil || adv != nil {
		t.Fatal("none should parse to nil")
	}
	if _, err := ParseAdversary("emp"); err == nil {
		t.Fatal("bad descriptor accepted")
	}

	res := Run(Config{Kappa: 16, Horizon: 4000, Drain: true, Seed: 3,
		Adversary: NewReactiveJammer(3, 32)},
		NewDecodableBackoff(16, 4), NewBernoulli(0.5))
	if res.Channel.JammedSlots == 0 {
		t.Fatal("reactive jammer never fired under load")
	}
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Fatal("conservation violated under the reactive jammer")
	}

	res = Run(Config{Kappa: 16, Horizon: 2000, Drain: true, Seed: 5,
		Adversary: NewSigmaRhoArrivals(100, 0.1)},
		NewDecodableBackoff(16, 6), NewBernoulli(0.2))
	if res.MaxBacklog < 100 {
		t.Fatalf("σ=100 burst never landed (max backlog %d)", res.MaxBacklog)
	}

	res = Run(Config{Kappa: 16, Horizon: 2000, Drain: true, Seed: 7,
		Adversary: NewBurstJammer(100, 900)},
		NewDecodableBackoff(16, 8), NewBernoulli(0.2))
	if res.Channel.JammedSlots == 0 {
		t.Fatal("burst jammer never fired")
	}

	// Merged arrivals: the adversary pattern as a standalone process.
	merged := NewMergedArrivals(NewBatchAt(10, 5), NewEvenPaced(0.25))
	res = Run(Config{Kappa: 16, Horizon: 1000, Drain: true, Seed: 9},
		NewDecodableBackoff(16, 10), merged)
	if res.Arrivals != 5+250 {
		t.Fatalf("merged arrivals %d, want 255", res.Arrivals)
	}
}

func TestNewAdversaryArrivalsAdapter(t *testing.T) {
	arr, ok := NewAdversaryArrivals(NewSigmaRhoArrivals(3, 0))
	if !ok {
		t.Fatal("sigmarho should adapt to Arrivals")
	}
	res := Run(Config{Kappa: 16, Horizon: 100, Drain: true, Seed: 11},
		NewDecodableBackoff(16, 12), NewMergedArrivals(arr, NewBatchAt(5, 2)))
	if res.Arrivals != 5 {
		t.Fatalf("arrivals %d, want σ=3 + batch 2", res.Arrivals)
	}
	if _, ok := NewAdversaryArrivals(NewBurstJammer(10, 90)); ok {
		t.Fatal("a pure jammer should not adapt to Arrivals")
	}
}

func TestFacadeConstructorsValidate(t *testing.T) {
	// Facade constructors must reject what ParseAdversary rejects, so a
	// typo'd parameter cannot yield a silently inert adversary.
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: bad parameters accepted", name)
			}
		}()
		f()
	}
	mustPanic("burst 0", func() { NewBurstJammer(0, 500) })
	mustPanic("gap -1", func() { NewBurstJammer(10, -1) })
	mustPanic("sigmarho 0/0", func() { NewSigmaRhoArrivals(0, 0) })
	mustPanic("reactive 0", func() { NewReactiveJammer(0, 5) })
}

func TestSweepFacadeShardResumeMerge(t *testing.T) {
	// The facade drives the distributed/cached sweep subsystem end to
	// end: two shard workers into a shared cache, assembled
	// byte-identical to an unsharded run, then a fully-warm resume that
	// executes nothing.
	spec := SweepSpec{
		Protocols: []string{"genie"}, Arrivals: []string{"batch"},
		Kappas: []int{4, 8}, Rates: []float64{0.5},
		Trials: 1, Horizon: 200, Seed: 5,
	}
	grid, err := RunSweep(context.Background(), spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}

	store, err := OpenSweepCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sh, err := ParseSweepShard("1/2")
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []SweepShard{sh, {Index: 2, Count: 2}} {
		res, err := RunSweepWorker(context.Background(), spec, SweepOptions{Cache: store, Shard: sh})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total != 1 || res.Executed != 1 {
			t.Fatalf("shard %s: executed %d of %d cells, want 1 of 1", sh, res.Executed, res.Total)
		}
	}
	assembled, err := AssembleSweep(context.Background(), spec, store)
	if err != nil {
		t.Fatal(err)
	}
	got, err := assembled.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatal("assembled facade sweep differs from unsharded run")
	}

	executed := 0
	resumed, err := RunSweep(context.Background(), spec, SweepOptions{Cache: store, Resume: true,
		OnCell: func(done, total int, cell *sweep.CellSummary, cached bool) {
			if !cached {
				executed++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 {
		t.Fatalf("warm resume executed %d cells, want 0", executed)
	}
	data, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(data) {
		t.Fatal("resumed facade sweep differs from unsharded run")
	}
}
