package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"

	_ "repro/internal/baseline" // register beb, aloha, genie, mw
	_ "repro/internal/core"     // register dba
	_ "repro/internal/nocd"     // register robust, unbounded
)

// arrivalProbe wraps the run's arrival process and listens to the same
// per-slot feedback devices hear, shadowing the engine's bookkeeping
// from outside: it derives the packet IDs the engine will assign (they
// are sequential in injection order), records each packet's inject
// slot, and retires packets as decoding events name them.  It is only
// sound when it is the run's sole injector (no adversary arrivals), in
// which case its view must agree exactly with the Result.
type arrivalProbe struct {
	inner arrival.Process
	t     *testing.T

	nextID   channel.PacketID
	inject   map[channel.PacketID]int64
	peak     int
	injected int64

	silent    int64
	events    int64
	delivered int64
}

func newArrivalProbe(t *testing.T, inner arrival.Process) *arrivalProbe {
	return &arrivalProbe{inner: inner, t: t, inject: make(map[channel.PacketID]int64)}
}

func (p *arrivalProbe) Name() string { return p.inner.Name() }

func (p *arrivalProbe) Injections(now int64, r *rng.Rand) int {
	n := p.inner.Injections(now, r)
	for i := 0; i < n; i++ {
		p.inject[p.nextID] = now
		p.nextID++
	}
	p.injected += int64(n)
	if len(p.inject) > p.peak {
		p.peak = len(p.inject)
	}
	return n
}

func (p *arrivalProbe) NextAfter(now int64) int64 { return p.inner.NextAfter(now) }

// Observe implements arrival.Observer: the probe hears every
// stepped slot and checks each delivery against its own ledger — a
// packet may only be delivered after it arrived, and only once.
func (p *arrivalProbe) Observe(fb channel.Feedback) {
	if fb.Silent {
		p.silent++
	}
	if fb.Event == nil {
		return
	}
	p.events++
	p.delivered += int64(len(fb.Event.Packets))
	for _, id := range fb.Event.Packets {
		at, ok := p.inject[id]
		if !ok {
			p.t.Errorf("slot %d: delivery of packet %d, which is not in flight (never injected, or delivered twice)", fb.Slot, id)
			continue
		}
		if fb.Slot < at {
			p.t.Errorf("packet %d delivered at slot %d before its arrival at %d", id, fb.Slot, at)
		}
		delete(p.inject, id)
	}
}

// checkResultInvariants holds any Result to the cross-protocol
// contract: packet conservation, slot-class accounting, and bound
// ordering — properties no protocol/medium/adversary combination may
// violate.
func checkResultInvariants(t *testing.T, res *Result) {
	t.Helper()
	if res.Arrivals != res.Delivered+int64(res.Pending) {
		t.Errorf("conservation: arrivals %d != delivered %d + pending %d",
			res.Arrivals, res.Delivered, res.Pending)
	}
	st := res.Channel
	if st.SilentSlots+st.GoodSlots+st.BadSlots != res.Elapsed {
		t.Errorf("slot accounting: silent %d + good %d + bad %d != elapsed %d",
			st.SilentSlots, st.GoodSlots, st.BadSlots, res.Elapsed)
	}
	if st.JammedSlots > st.BadSlots {
		t.Errorf("jammed slots %d exceed bad slots %d", st.JammedSlots, st.BadSlots)
	}
	if res.Delivered != st.Delivered {
		t.Errorf("deliveries: result %d, channel stats %d", res.Delivered, st.Delivered)
	}
	if st.Events > st.GoodSlots {
		t.Errorf("events %d exceed good slots %d", st.Events, st.GoodSlots)
	}
	if res.MaxBacklog > res.PeakInFlight {
		t.Errorf("backlog peak %d exceeds in-flight peak %d", res.MaxBacklog, res.PeakInFlight)
	}
	if int64(res.PeakInFlight) > res.Arrivals {
		t.Errorf("in-flight peak %d exceeds arrivals %d", res.PeakInFlight, res.Arrivals)
	}
	if res.Delivered > 0 {
		if res.FirstArrival < 0 || res.LastDelivery < res.FirstArrival {
			t.Errorf("delivery at %d before first arrival at %d", res.LastDelivery, res.FirstArrival)
		}
		if res.Latency.Min() < 1 {
			t.Errorf("latency %g below the 1-slot floor", res.Latency.Min())
		}
	}
}

// TestConformanceGrid drives every registered protocol through every
// channel model, adversary, and arrival shape in a compact grid and
// holds each run to the shared invariants — via the Result alone, and
// (when the run has no adversary injector) via an independent
// arrival-side probe that re-derives the bookkeeping from the feedback
// stream and must agree with the Result exactly.  Each cell runs twice
// over: w0 once, w4 as four identical trials on four concurrent trial
// workers (ForEach, as RunTrials and sweeps run them), whose digests
// must agree — so state shared between trials shows up as a broken
// invariant, a moved digest or, under -race, a data race.
func TestConformanceGrid(t *testing.T) {
	type advCase struct {
		name     string
		adaptive bool // needs truthful silence feedback
		injects  bool // adds arrivals the probe cannot see
		config   func(cfg *Config)
	}
	advs := []advCase{
		{"none", false, false, func(cfg *Config) {}},
		{"random-jam", false, false, func(cfg *Config) {
			cfg.Medium = medium.JamAdversary(cfg.Medium, adversary.NewRandom(0.1), cfg.Seed)
		}},
		{"reactive", true, false, func(cfg *Config) { cfg.Adversary = adversary.NewReactive(2, 16) }},
		{"sigmarho", false, true, func(cfg *Config) { cfg.Adversary = adversary.NewSigmaRho(40, 0.05) }},
	}
	models := []string{"coded", "classical:ternary", "classical:none", "capture"}
	arrivals := []struct {
		name  string
		build func() arrival.Process
	}{
		{"batch", func() arrival.Process { return &arrival.Batch{At: 0, N: 120} }},
		{"bernoulli", func() arrival.Process { return &arrival.Bernoulli{Rate: 0.15} }},
	}

	for _, info := range protocol.Registered() {
		for _, model := range models {
			if info.CodedOnly && model != "coded" {
				continue
			}
			kappa := 8
			if model == "capture" {
				kappa = 4
			}
			for _, adv := range advs {
				// The engine itself rejects adaptive adversaries on
				// silence-masking media; mirror the sweep skip rule.
				if adv.adaptive && model == "classical:none" {
					continue
				}
				for _, arr := range arrivals {
					for _, workers := range []int{0, 4} {
						name := fmt.Sprintf("%s/%s/%s/%s/w%d", info.Name, model, adv.name, arr.name, workers)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							runs := max(workers, 1)
							digests := make([]string, runs)
							ForEach(runs, runs, func(i int) {
								digests[i] = conformanceRun(t, info.Name, model, kappa, adv.config, !adv.injects, arr.build)
							})
							for i, d := range digests {
								if d != digests[0] {
									t.Errorf("trial %d of %d diverged from trial 0", i, runs)
								}
							}
						})
					}
				}
			}
		}
	}
}

// conformanceRun runs one conformance cell, checks it, and returns its
// digest.  It reports through t.Errorf only, so concurrent trial
// workers may call it.
func conformanceRun(t *testing.T, proto, model string, kappa int, disrupt func(*Config), probed bool, arr func() arrival.Process) string {
	med, err := medium.New(model, kappa, 0)
	if err != nil {
		t.Error(err)
		return ""
	}
	cfg := Config{
		Kappa:   med.Kappa(),
		Horizon: 2000,
		Drain:   true,
		Seed:    31,
		Medium:  med,
	}
	disrupt(&cfg)
	p := protocol.Build(proto, protocol.Params{
		Kappa: med.Kappa(), Rand: rng.New(41), AlohaP: 0.05,
	})
	var probe *arrivalProbe
	process := arr()
	if probed {
		probe = newArrivalProbe(t, process)
		process = probe
	}
	res := Run(cfg, p, process)
	checkResultInvariants(t, res)
	if probe == nil {
		return resultDigest(res)
	}
	if probe.injected != res.Arrivals {
		t.Errorf("probe saw %d arrivals, result %d", probe.injected, res.Arrivals)
	}
	if len(probe.inject) != res.Pending {
		t.Errorf("probe holds %d undelivered, result pending %d", len(probe.inject), res.Pending)
	}
	if probe.delivered != res.Delivered {
		t.Errorf("probe saw %d deliveries, result %d", probe.delivered, res.Delivered)
	}
	if probe.events != res.Channel.Events {
		t.Errorf("probe saw %d events, channel stats %d", probe.events, res.Channel.Events)
	}
	if probe.peak != res.PeakInFlight {
		t.Errorf("probe in-flight peak %d, result %d", probe.peak, res.PeakInFlight)
	}
	if probe.silent > res.Channel.SilentSlots {
		t.Errorf("probe heard %d silent slots, channel stats only %d",
			probe.silent, res.Channel.SilentSlots)
	}
	return resultDigest(res)
}

// coastProbe checks protocol.Coaster's promise from outside.  It drives
// a protocol and a twin built from the same seed with the same arrivals
// and feedback, under a Run that sees neither as a Coaster and so
// collects transmitters in every stepped slot.  It asks CoastUntil right
// after Transmitters, as both engines do.  In each slot the answer
// covers, reached through busy, event-free feedback, it asks the
// protocol for its transmitters again and the twin not at all, and
// requires the list collected where the coast began and the two
// replicas deeply equal: state and RNG position alike.
type coastProbe struct {
	t       *testing.T
	p, twin protocol.Protocol
	co      protocol.Coaster

	end, last  int64 // coast end (-1: none); last observed slot
	busy       bool  // that slot was heard busy with no event
	list, tbuf []channel.PacketID
	coasts     int
	covered    int
}

func (c *coastProbe) Name() string { return c.p.Name() }
func (c *coastProbe) Pending() int { return c.p.Pending() }

func (c *coastProbe) Inject(now int64, ids []channel.PacketID) {
	c.p.Inject(now, ids)
	c.twin.Inject(now, ids)
}

func (c *coastProbe) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	buf = c.p.Transmitters(now, buf)
	if now <= c.end && c.last == now-1 && c.busy {
		c.covered++
		if !slices.Equal(buf, c.list) {
			c.t.Errorf("slot %d, inside the coast to %d: Transmitters returned %d packets, not the %d it froze",
				now, c.end, len(buf), len(c.list))
		}
		if !reflect.DeepEqual(c.p, c.twin) {
			c.t.Errorf("slot %d, inside the coast to %d: Transmitters changed the protocol's state", now, c.end)
		}
		return buf
	}
	c.tbuf = c.twin.Transmitters(now, c.tbuf[:0])
	if !slices.Equal(buf, c.tbuf) {
		c.t.Errorf("slot %d: the protocol transmits %d packets, its twin %d", now, len(buf), len(c.tbuf))
	}
	c.list = append(c.list[:0], buf...)
	if c.end = c.co.CoastUntil(now); c.end > now {
		c.coasts++
	}
	return buf
}

func (c *coastProbe) Observe(fb channel.Feedback) {
	c.p.Observe(fb)
	c.twin.Observe(fb)
	c.last, c.busy = fb.Slot, !fb.Silent && fb.Event == nil
}

// TestCoasterContract holds every registered Coaster to its promise
// (see coastProbe) across several κ, batch and Bernoulli arrivals, with
// and without a jamming adversary, at fixed seeds.
func TestCoasterContract(t *testing.T) {
	arrivals := []struct {
		name  string
		build func() arrival.Process
	}{
		{"batch", func() arrival.Process { return &arrival.Batch{At: 0, N: 300} }},
		{"bernoulli", func() arrival.Process { return &arrival.Bernoulli{Rate: 0.2} }},
	}
	for _, info := range protocol.Registered() {
		build := func(seed uint64, kappa int) protocol.Protocol {
			return protocol.Build(info.Name, protocol.Params{Kappa: kappa, Rand: rng.New(seed), AlohaP: 0.05})
		}
		if _, ok := build(1, 8).(protocol.Coaster); !ok {
			continue
		}
		for _, kappa := range []int{6, 8, 16, 32} {
			for _, arr := range arrivals {
				for _, adv := range []string{"none", "random:0.2"} {
					for _, seed := range []uint64{3, 1009} {
						name := fmt.Sprintf("%s/k%d/%s/%s/seed%d", info.Name, kappa, arr.name, adv, seed)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							a, err := adversary.Parse(adv)
							if err != nil {
								t.Fatal(err)
							}
							p := build(seed, kappa)
							probe := &coastProbe{t: t, p: p, twin: build(seed, kappa), co: p.(protocol.Coaster), end: -1, last: -1}
							res := Run(Config{Kappa: kappa, Horizon: 1500, Drain: true, Seed: seed, Adversary: a}, probe, arr.build())
							checkResultInvariants(t, res)
							if probe.covered == 0 {
								t.Fatalf("no slot was covered by a coast (%d coasts promised): the check is vacuous", probe.coasts)
							}
							if !reflect.DeepEqual(probe.p, probe.twin) {
								t.Error("the protocol and its twin ended in different states")
							}
							t.Logf("%d coasts covered %d of %d slots", probe.coasts, probe.covered, res.Elapsed)
						})
					}
				}
			}
		}
	}
}
