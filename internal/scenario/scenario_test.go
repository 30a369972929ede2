package scenario

import (
	"errors"
	"math"
	"testing"

	"repro/internal/adversary"
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

// TestBuildDefaults pins what the zero values of the descriptor select
// and the κ a run is built at.
func TestBuildDefaults(t *testing.T) {
	for _, tc := range []struct {
		name      string
		edit      func(*Desc)
		arrival   string
		kappa     int
		alohaP    float64
		hasMedium bool
	}{
		{"batch of rate×horizon", func(d *Desc) { d.BatchN = 0 }, "batch(50@0)", 8, defaultAlohaP, false},
		{"batch of at least 1", func(d *Desc) { d.BatchN, d.Rate = 0, 0.001 }, "batch(1@0)", 8, defaultAlohaP, false},
		{"empty arrival is batch", func(d *Desc) { d.Arrival = "" }, "batch(20@0)", 8, defaultAlohaP, false},
		{"burst window default", func(d *Desc) { d.Arrival = "burst" }, "burst(8192/16384)", 8, defaultAlohaP, false},
		{"burst of at least 1", func(d *Desc) { d.Arrival, d.Rate, d.BurstWindow = "burst", 0.001, 64 }, "burst(1/64)", 8, defaultAlohaP, false},
		{"ALOHA p given", func(d *Desc) { d.Protocol, d.AlohaP = "aloha", 0.25 }, "batch(20@0)", 8, 0.25, false},
		{"classical decodes 1", func(d *Desc) { d.Model = "classical:binary" }, "batch(20@0)", 1, defaultAlohaP, true},
		{"embedded κ wins", func(d *Desc) { d.Model = "capture:4" }, "batch(20@0)", 4, defaultAlohaP, true},
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
		// A bare "coded" leaves the engine its default window cap.
		if (b.Config.Medium != nil) != tc.hasMedium {
			t.Errorf("%s: medium %v", tc.name, b.Config.Medium)
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
