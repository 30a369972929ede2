package scenario

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arena"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
)

// base is a descriptor every rule row below breaks in one place.
func base() Desc {
	return Desc{Protocol: "beb", Kappa: 8, Rate: 0.5, BatchN: 20, Horizon: 100, Drain: true}
}

// TestCheckRules holds one row per rule: pairing refusals wrap
// ErrPairing, value refusals do not, and the accepted rows pin what each
// rule leaves alone.
func TestCheckRules(t *testing.T) {
	const (
		ok = iota
		value
		pairing
	)
	rows := []struct {
		name string
		edit func(*Desc)
		want int
	}{
		{"base", func(*Desc) {}, ok},
		{"unknown model", func(d *Desc) { d.Model = "warp" }, value},
		{"unknown protocol", func(d *Desc) { d.Protocol = "tdma" }, value},
		{"unknown arrival", func(d *Desc) { d.Arrival = "fractal" }, value},
		{"unknown jammer", func(d *Desc) { d.Jammer = "emp" }, value},
		{"bad random jammer", func(d *Desc) { d.Jammer = "random:2" }, value},
		{"bad periodic jammer", func(d *Desc) { d.Jammer = "periodic:10" }, value},
		{"unknown adversary", func(d *Desc) { d.Adversary = "emp" }, value},
		{"κ 0 on coded", func(d *Desc) { d.Kappa = 0 }, value},
		{"κ 0 on capture", func(d *Desc) { d.Model, d.Kappa = "capture", 0 }, value},
		{"κ above 2^30", func(d *Desc) { d.Kappa = maxKappa + 1 }, value},
		{"κ 0 on classical", func(d *Desc) { d.Model, d.Kappa = "classical", 0 }, ok},
		{"κ 0 with an embedded κ", func(d *Desc) { d.Model, d.Kappa = "coded:12", 0 }, ok},
		{"negative window cap", func(d *Desc) { d.MaxWindow = -1 }, value},
		{"negative rate", func(d *Desc) { d.Arrival, d.Rate = "bernoulli", -0.1 }, value},
		{"NaN rate", func(d *Desc) { d.Rate = math.NaN() }, value},
		{"infinite rate", func(d *Desc) { d.Rate = math.Inf(1) }, value},
		{"negative batch", func(d *Desc) { d.BatchN = -3 }, value},
		{"negative burst window", func(d *Desc) { d.Arrival, d.BurstWindow = "burst", -5 }, value},
		{"ALOHA p above 1", func(d *Desc) { d.Protocol, d.AlohaP = "aloha", 2 }, value},
		{"ALOHA p below 0", func(d *Desc) { d.AlohaP = -0.1 }, value},
		{"ALOHA p NaN", func(d *Desc) { d.AlohaP = math.NaN() }, value},
		{"horizon 0", func(d *Desc) { d.Horizon = 0 }, value},
		{"negative drain limit", func(d *Desc) { d.DrainLimit = -1 }, value},
		{"latency samples -5", func(d *Desc) { d.LatencySamples = -5 }, value},
		{"latency samples off", func(d *Desc) { d.LatencySamples = -1 }, ok},
		{"series cap 1", func(d *Desc) { d.SeriesCap = 1 }, value},
		{"series cap -2", func(d *Desc) { d.SeriesCap = -2 }, value},
		{"series off", func(d *Desc) { d.SeriesCap = sim.SeriesOff }, ok},
		{"dba below its minimum κ", func(d *Desc) { d.Protocol, d.Kappa = "dba", 2 }, value},
		{"dba below its minimum embedded κ", func(d *Desc) { d.Protocol, d.Model = "dba", "coded:4" }, value},
		{"dba on classical", func(d *Desc) { d.Protocol, d.Model = "dba", "classical" }, pairing},
		{"dba on capture", func(d *Desc) { d.Protocol, d.Model = "dba", "capture" }, pairing},
		{"robust on coded", func(d *Desc) { d.Protocol = "robust" }, pairing},
		{"unbounded on classical:ternary", func(d *Desc) { d.Protocol, d.Model = "unbounded", "classical:ternary" }, pairing},
		{"unbounded on classical:none", func(d *Desc) { d.Protocol, d.Model = "unbounded", "classical:none" }, ok},
		{"jammer and jamming adversary", func(d *Desc) { d.Jammer, d.Adversary = "random:0.1", "burst:2/3" }, pairing},
		{"jammer and adaptive adversary", func(d *Desc) { d.Jammer, d.Adversary = "periodic:10/2", "reactive:4/8" }, pairing},
		{"jammer and injecting adversary", func(d *Desc) { d.Jammer, d.Adversary = "random:0.1", "sigmarho:10/0.1" }, ok},
		{"adaptive adversary on classical:none", func(d *Desc) { d.Model, d.Adversary = "classical:none", "reactive:4/8" }, pairing},
		{"oblivious adversary on classical:none", func(d *Desc) { d.Model, d.Adversary = "classical:none", "random:0.1" }, ok},
		// A pairing refusal comes before the κ a refused pairing would
		// never run at: the sweep skips dba's classical cells at κ = 1.
		{"dba on classical below its minimum κ", func(d *Desc) { d.Protocol, d.Model, d.Kappa = "dba", "classical", 1 }, pairing},
	}
	for _, r := range rows {
		d := base()
		r.edit(&d)
		err := d.Check()
		switch {
		case r.want == ok && err != nil:
			t.Errorf("%s: refused: %v", r.name, err)
		case r.want != ok && err == nil:
			t.Errorf("%s: accepted %+v", r.name, d)
		case r.want != ok && errors.Is(err, ErrPairing) != (r.want == pairing):
			t.Errorf("%s: errors.Is(%v, ErrPairing) = %v", r.name, err, r.want != pairing)
		}
		if _, berr := d.Build(1, 2, nil); (berr == nil) != (err == nil) {
			t.Errorf("%s: Check says %v, Build says %v", r.name, err, berr)
		}
	}
}

// TestCheckBuildsNoMedium: checking an adaptive adversary's pairing
// reads the model descriptor and builds no medium, so check allocates
// for a reactive:4/48 descriptor only the adversary it parses, exactly
// as for none, on every model the adversary pairs with.
func TestCheckBuildsNoMedium(t *testing.T) {
	const adv = "reactive:4/48"
	parse := testing.AllocsPerRun(100, func() {
		if _, err := adversary.Parse(adv); err != nil {
			t.Fatal(err)
		}
	})
	for _, model := range []string{"coded", "classical:binary", "classical:ternary", "capture"} {
		checkAllocs := func(a string) float64 {
			d := base()
			d.Model, d.Adversary = model, a
			return testing.AllocsPerRun(100, func() {
				if _, err := d.check(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if with, without := checkAllocs(adv), checkAllocs("none"); with != without+parse {
			t.Errorf("%s: check allocates %v objects with %s, %v with none and %v parsing the adversary",
				model, with, adv, without, parse)
		}
	}
}

// TestBuildDefaults pins what the zero values of the descriptor select
// and the κ a run is built at.
func TestBuildDefaults(t *testing.T) {
	for _, tc := range []struct {
		name    string
		edit    func(*Desc)
		arrival string
		kappa   int
		alohaP  float64
		window  int // the coded channel's window cap; -1 for other models
	}{
		{"batch of rate×horizon", func(d *Desc) { d.BatchN = 0 }, "batch(50@0)", 8, defaultAlohaP, 32},
		{"batch of at least 1", func(d *Desc) { d.BatchN, d.Rate = 0, 0.001 }, "batch(1@0)", 8, defaultAlohaP, 32},
		{"empty arrival is batch", func(d *Desc) { d.Arrival = "" }, "batch(20@0)", 8, defaultAlohaP, 32},
		{"burst window default", func(d *Desc) { d.Arrival = "burst" }, "burst(8192/16384)", 8, defaultAlohaP, 32},
		{"burst of at least 1", func(d *Desc) { d.Arrival, d.Rate, d.BurstWindow = "burst", 0.001, 64 }, "burst(1/64)", 8, defaultAlohaP, 32},
		{"ALOHA p given", func(d *Desc) { d.Protocol, d.AlohaP = "aloha", 0.25 }, "batch(20@0)", 8, 0.25, 32},
		{"window cap given", func(d *Desc) { d.MaxWindow = 12 }, "batch(20@0)", 8, defaultAlohaP, 12},
		{"embedded κ uncaps", func(d *Desc) { d.Model = "coded:6" }, "batch(20@0)", 6, defaultAlohaP, 0},
		{"classical decodes 1", func(d *Desc) { d.Model = "classical:binary" }, "batch(20@0)", 1, defaultAlohaP, -1},
		{"embedded κ wins", func(d *Desc) { d.Model = "capture:4" }, "batch(20@0)", 4, defaultAlohaP, -1},
	} {
		d := base()
		tc.edit(&d)
		b, err := d.Build(1, 2, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := b.Arrival.Name(); got != tc.arrival {
			t.Errorf("%s: arrival %s, want %s", tc.name, got, tc.arrival)
		}
		if b.Config.Kappa != tc.kappa || b.AlohaP != tc.alohaP {
			t.Errorf("%s: κ %d, ALOHA p %g; want κ %d, p %g", tc.name, b.Config.Kappa, b.AlohaP, tc.kappa, tc.alohaP)
		}
		// A bare "coded" takes the engine's default window cap, 4κ.
		window := -1
		if c, ok := b.Config.Medium.(*medium.Coded); ok {
			window = c.Channel().MaxWindow()
		}
		if window != tc.window || b.Config.Medium.Kappa() != tc.kappa {
			t.Errorf("%s: medium %s κ=%d with window cap %d; want κ %d, window cap %d",
				tc.name, b.Config.Medium.Name(), b.Config.Medium.Kappa(), window, tc.kappa, tc.window)
		}
	}
}

// TestParseJammerMatchesAdversaries shows the jammer descriptors are
// adversaries under other names: periodic:P/B jams exactly the slots
// burst:B/(P−B) jams, periodic:P/0 none, and random:R exactly the slots
// adversary random:R jams from the same rng state.
func TestParseJammerMatchesAdversaries(t *testing.T) {
	const slots = 4000
	same := func(jammer, adv string) {
		t.Helper()
		j, err := ParseJammer(jammer)
		if err != nil {
			t.Fatal(err)
		}
		a := mustParse(t, adv).(adversary.Jammer)
		for now := int64(0); now < slots; now++ {
			if got, want := j.Jams(now, rng.New(uint64(now))), a.Jams(now, rng.New(uint64(now))); got != want {
				t.Fatalf("slot %d: %s jams %v, %s %v", now, jammer, got, adv, want)
			}
		}
	}
	for period := int64(1); period <= 12; period++ {
		for burst := int64(1); burst <= period; burst++ {
			same(fmt.Sprintf("periodic:%d/%d", period, burst), fmt.Sprintf("burst:%d/%d", burst, period-burst))
		}
		j, err := ParseJammer(fmt.Sprintf("periodic:%d/0", period))
		if err != nil {
			t.Fatal(err)
		}
		for now := int64(0); now < slots; now++ {
			if j.Jams(now, nil) {
				t.Fatalf("periodic:%d/0 jammed slot %d", period, now)
			}
		}
	}
	same("periodic:1000/100", "burst:100/900")
	for _, rate := range []string{"0", "0.1", "0.5", "0.999", "1"} {
		same("random:"+rate, "random:"+rate)
	}
}

// TestPeriodicJammerPattern: periodic:P/B jams the first B slots of
// every P.
func TestPeriodicJammerPattern(t *testing.T) {
	j, err := ParseJammer("periodic:10/3")
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 50; now++ {
		if got, want := j.Jams(now, nil), now%10 < 3; got != want {
			t.Fatalf("slot %d: jammed=%v want %v", now, got, want)
		}
	}
}

// TestPeriodicJammerZeroPeriod: a period below 1, or a burst outside
// [0, P], is refused rather than built into a jammer.
func TestPeriodicJammerZeroPeriod(t *testing.T) {
	for _, bad := range []string{"periodic:0/0", "periodic:0/1", "periodic:-4/1", "periodic:4/5", "periodic:4/-1"} {
		if j, err := ParseJammer(bad); err == nil {
			t.Errorf("%s accepted as %s", bad, j.Name())
		}
	}
}

// TestParseJammerNone: none, spelled out or empty, is no jammer.
func TestParseJammerNone(t *testing.T) {
	for _, none := range []string{"", "none"} {
		if j, err := ParseJammer(none); j != nil || err != nil {
			t.Fatalf("ParseJammer(%q) = %v, %v, want nil, nil", none, j, err)
		}
	}
}

// TestParseJammerNames: each jammer carries the name Result.Medium and
// the artifacts show.
func TestParseJammerNames(t *testing.T) {
	for desc, name := range map[string]string{
		"random:0.5":    "random(0.500)",
		"random:0.1":    "random(0.100)",
		"periodic:2/1":  "periodic(1/2)",
		"periodic:32/4": "periodic(4/32)",
		"periodic:8/0":  "periodic(0/8)",
	} {
		j, err := ParseJammer(desc)
		if err != nil {
			t.Fatal(err)
		}
		if j.Name() != name {
			t.Errorf("ParseJammer(%q).Name() = %q, want %q", desc, j.Name(), name)
		}
	}
}

// FuzzBuild: any descriptor Check accepts builds, and its run finishes
// without a panic and conserves packets.  Only large values are
// clamped, so every refusal stays reachable while each run stays small.
func FuzzBuild(f *testing.F) {
	for _, d := range []Desc{
		{Protocol: "dba", Kappa: 8, BatchN: 50, Horizon: 1, Drain: true},
		{Protocol: "beb", Model: "classical", Arrival: "bernoulli", Rate: 0.1, Horizon: 100, Drain: true, Adversary: "burst:2/5"},
		{Protocol: "aloha", Model: "capture:4", Arrival: "poisson", Rate: 0.05, Horizon: 100, AlohaP: 0.3, Jammer: "random:0.1"},
		{Protocol: "genie", Model: "classical:binary", Arrival: "even", Rate: 0.2, Horizon: 100, Drain: true, Jammer: "periodic:10/2"},
		{Protocol: "mw", Model: "coded:6/12", Arrival: "burst", Rate: 0.5, BurstWindow: 16, Horizon: 64, SeriesCap: -1},
		{Protocol: "robust", Model: "classical:none", BatchN: 10, Horizon: 1, Drain: true, Adversary: "sigmarho:5/0.1"},
		{Protocol: "unbounded", Model: "classical:none", Rate: 0.5, Horizon: 20, Drain: true, LatencySamples: -1},
		{Protocol: "dba", Kappa: 6, Arrival: "bernoulli", Rate: 0.5, Horizon: 100, Drain: true, Adversary: "reactive:4/8", MaxWindow: 12},
		// The pairings crnsim and crnemu used to panic on.
		{Protocol: "beb", Model: "classical:none", Horizon: 10, Adversary: "reactive:4/8"},
		{Protocol: "aloha", Model: "classical", Horizon: 10, AlohaP: 2},
		{Protocol: "beb", Kappa: 0, Horizon: 10},
	} {
		f.Add(d.Model, d.Protocol, d.Arrival, d.Jammer, d.Adversary, d.Kappa, d.MaxWindow, d.Rate,
			d.BatchN, d.BurstWindow, d.AlohaP, d.Horizon, d.Drain, d.DrainLimit, d.LatencySamples, d.SeriesCap, uint64(7))
	}
	f.Fuzz(func(t *testing.T, model, proto, arr, jammer, adv string, kappa, maxWindow int, rate float64,
		batchN int, burstWindow int64, alohaP float64, horizon int64, drain bool, drainLimit int64,
		latencySamples, seriesCap int, seed uint64) {
		d := Desc{
			Model: model, Protocol: proto, Arrival: arr, Jammer: jammer, Adversary: adv,
			Kappa: kappa, MaxWindow: maxWindow, Rate: min(rate, 2),
			BatchN: min(batchN, 200), BurstWindow: min(burstWindow, 256), AlohaP: alohaP,
			Horizon: min(horizon, 200), Drain: drain, DrainLimit: min(drainLimit, 2000),
			LatencySamples: latencySamples, SeriesCap: seriesCap,
		}
		if d.DrainLimit == 0 {
			d.DrainLimit = 2000
		}
		if d.Check() != nil {
			return
		}
		// A (σ,ρ) adversary's own budget sizes the run too.
		if sr, ok := mustParse(t, adv).(*adversary.SigmaRho); ok && (sr.Sigma > 200 || sr.Rho > 2) {
			return
		}
		b, err := d.Build(seed, seed^1, nil)
		if err != nil {
			t.Fatalf("Check accepted %+v, Build refused it: %v", d, err)
		}
		res := sim.Run(b.Config, b.Proto, b.Arrival)
		if res.Arrivals != res.Delivered+int64(res.Pending) {
			t.Fatalf("%+v: %d arrivals, %d delivered, %d pending", d, res.Arrivals, res.Delivered, res.Pending)
		}
	})
}

func mustParse(t *testing.T, desc string) adversary.Adversary {
	a, err := adversary.Parse(desc)
	if err != nil {
		t.Fatalf("Check accepted adversary %q that does not parse: %v", desc, err)
	}
	return a
}

// TestWarmSlotAllocatesNoProtocolBuffers pins what a Slot recycles of
// the protocol.  On a 4096-packet batch, a trial run on a warmed Slot
// must allocate fewer objects than the same trial run with a freshly
// built protocol, on a warmed Runner and a recycled medium, by at least
// the location pages the protocol's arena maps, and, for beb, mw and
// genie, by the append steps that grow its transmission heap,
// activation bucket or packet list to the whole batch (dba grows its
// inactive list and activation bucket once each).
func TestWarmSlotAllocatesNoProtocolBuffers(t *testing.T) {
	appendSteps := func(n int) (steps int) {
		var s []int64
		for i := 0; i < n; i++ {
			if len(s) == cap(s) {
				steps++
			}
			s = append(s, 0)
		}
		return steps
	}
	for _, proto := range []string{"beb", "mw", "genie", "dba"} {
		t.Run(proto, func(t *testing.T) {
			d := Desc{Protocol: proto, Kappa: 8, BatchN: 4096, Horizon: 1, Drain: true,
				LatencySamples: sim.LatencySamplesOff, SeriesCap: sim.SeriesOff}
			var r sim.Runner
			var m medium.Medium
			var res *sim.Result
			fresh := testing.AllocsPerRun(3, func() {
				b, model, err := d.build(1, 2, nil, nil, m)
				if err != nil {
					t.Fatal(err)
				}
				res = r.Run(b.Config, b.Proto, b.Arrival)
				m = model
			})
			var s Slot
			warm := testing.AllocsPerRun(3, func() { s.Run(d, 1, 2, nil) }) // its warm-up call warms s
			want := res.PeakInFlight / arena.PageSize
			if proto == "dba" {
				want += 2
			} else {
				want += appendSteps(res.PeakInFlight)
			}
			if saved := fresh - warm; saved < float64(want) {
				t.Fatalf("a warmed Slot allocates %v objects per trial, a fresh protocol on warmed engine buffers and medium %v: saved %v, want >= %d",
					warm, fresh, saved, want)
			}
		})
	}
}

// TestWarmSlotRecyclesUnderJammer pins what a warm trial allocates
// beyond its protocol's buffers, on a 4096-packet batch.  A beb trial
// allocates no more objects than a dba trial: the coded channel keeps
// its window buffer across the prunes a beb drain makes.  A jammer is
// built fresh per trial, wrapper and all, while the Slot recycles the
// model medium below it, so a jammed trial allocates at most what a
// fresh jammer and wrapper cost beyond the same trial unjammed: their
// construction and the medium's name.  The wrapper validates the slots
// it spoils in the model medium's duplicate-check scratch, so a jammed
// slot the whole batch transmits in allocates nothing on a warm Slot.
// Each count starts on a collected heap, so that a collection emptying
// fmt's buffer pool mid-count is less likely to add an allocation.
func TestWarmSlotRecyclesUnderJammer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const batch, runs = 4096, 3
	warm := func(proto, jammer string) float64 {
		d := Desc{Protocol: proto, Kappa: 8, BatchN: batch, Horizon: 1, Drain: true, Jammer: jammer,
			LatencySamples: sim.LatencySamplesOff, SeriesCap: sim.SeriesOff}
		var s Slot
		runtime.GC()
		return testing.AllocsPerRun(runs, func() { s.Run(d, 1, 2, nil) }) // its warm-up call warms s
	}
	model := medium.NewCoded(8, 32)
	runtime.GC()
	wrap := testing.AllocsPerRun(runs, func() {
		j, err := ParseJammer("random:0.1")
		if err != nil {
			t.Fatal(err)
		}
		_ = medium.JamAdversary(model, j, 1).Name()
	})
	plain := map[string]float64{"beb": warm("beb", ""), "dba": warm("dba", "")}
	if plain["beb"] > plain["dba"] {
		t.Fatalf("a warm beb trial allocates %v objects, a warm dba trial %v", plain["beb"], plain["dba"])
	}
	for proto, p := range plain {
		if jammed := warm(proto, "random:0.1"); jammed > p+wrap {
			t.Errorf("a warm jammed %s trial allocates %v objects, unjammed %v, the jammer, its wrapper and name %v",
				proto, jammed, p, wrap)
		}
	}
}

// TestSlotKeepsOnlyReturnedTrials: a trial that panics mid-run leaves
// its Slot holding neither its protocol nor its medium, and the Slot's
// next trial runs exactly as a fresh build.
func TestSlotKeepsOnlyReturnedTrials(t *testing.T) {
	d := Desc{Protocol: "dba", Kappa: 8, BatchN: 200, Horizon: 1, Drain: true}
	var s Slot
	if _, err := s.Run(d, 1, 2, nil); err != nil {
		t.Fatal(err)
	}
	if s.proto == nil || s.medium == nil {
		t.Fatal("a returned trial's protocol and medium were not kept")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the observer's panic did not end the trial")
			}
		}()
		s.Run(d, 3, 4, protocol.EpochObserverFunc(func(protocol.EpochInfo) { panic("observer") }))
	}()
	if s.proto != nil || s.medium != nil {
		t.Fatal("the Slot kept what a panicking trial ran on")
	}
	b, err := d.Build(5, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(b.Config, b.Proto, b.Arrival)
	got, err := s.Run(d, 5, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after a panicking trial the Slot ran\n%v\nwhere a fresh build ran\n%v", got, want)
	}
}
