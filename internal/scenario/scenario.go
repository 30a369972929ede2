// Package scenario is the one builder that turns a named scenario into
// a run, behind every entry point that does so: cmd/crnsim, the
// emulation (internal/emu, cmd/crnemu), the sweep executor and the
// engine benchmark (internal/perf).  A Desc names the channel model,
// protocol, arrival process, jammer and adversary and carries the
// numbers that size the run; Check holds every validation and pairing
// rule; Build returns the engine configuration, the medium and protocol
// (built through the model descriptor and the registry) and the arrival
// process; a Slot runs such builds one after another on recycled state.
//
// Pairing rules say which protocol, model and noise sources may share a
// run: the registry's CodedOnly and NoCDOnly flags, at most one noise
// source (a jammer never beside a jamming or adaptive adversary), and
// no adaptive adversary over a model that masks silence.  Every pairing
// refusal wraps ErrPairing, so the sweep can skip such cells while every
// other entry point refuses the run.  A protocol's minimum κ
// (protocol.Info.MinKappa) is a value rule, checked against the
// effective κ after a descriptor's embedded one.
//
// A jammer descriptor names an oblivious jamming adversary
// (ParseJammer).  Build wraps it over the model medium in
// Config.Medium, on its own seed stream, so it can run beside an
// injecting Desc.Adversary; the descriptors stay for the sweep's
// jammers axis and the jam=… segment of its cell keys.
//
// Seeds stay explicit arguments of Build: each caller keeps its own
// seed derivation, so what it builds is unchanged.
package scenario

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	// Protocols are built through the registry; these imports link every
	// implementing package, so every caller sees the whole registry.
	_ "repro/internal/baseline"
	_ "repro/internal/core"
	_ "repro/internal/nocd"
)

// arrivals lists the arrival kinds a Desc may name, in canonical order.
var arrivals = []string{"batch", "bernoulli", "poisson", "even", "burst"}

// ErrPairing is wrapped by every pairing refusal.
var ErrPairing = errors.New("scenario: pairing refused")

const (
	defaultBurstWindow = 16384
	defaultAlohaP      = 0.001
	// maxKappa keeps the engine's default window cap, 4κ, inside an int.
	maxKappa = 1 << 30
	// jamSeedSalt decorrelates a jammer's slot-keyed randomness from the
	// engine seed's other consumers, an adversary's included.
	jamSeedSalt = 0x4a4d // "JM"
)

// Desc describes one scenario.  A zero field selects its default where
// it has one.
type Desc struct {
	// Model is a channel-model descriptor (medium.ParseSpec); "" is
	// coded.
	Model string
	// Protocol is a registered protocol name (protocol.Names).
	Protocol string
	// Arrival is batch (also ""), bernoulli, poisson, even or burst.
	Arrival string
	// Jammer is a jammer descriptor (ParseJammer); "" is none.
	Jammer string
	// Adversary is an adversary descriptor (adversary.Parse); "" is
	// none.
	Adversary string

	// Kappa is the decoding threshold where Model embeds none; the
	// classical models ignore it.
	Kappa int
	// MaxWindow caps decoding windows where Model embeds no cap: 0 is
	// the engine default 4κ on a bare "coded", and no cap on "coded:K".
	MaxWindow int
	// Rate is the offered load, one number for every arrival kind: the
	// per-slot probability (bernoulli), intensity (poisson), pace
	// (even), window-fill fraction (burst) or horizon-fill fraction
	// (batch, when BatchN is 0).
	Rate float64
	// BatchN is the batch size (0 = Rate×Horizon, at least 1).
	BatchN int
	// BurstWindow is the burst window (0 = 16384); each window opens
	// with Rate×BurstWindow packets, at least 1.
	BurstWindow int64
	// AlohaP is slotted ALOHA's transmission probability (0 = 0.001).
	AlohaP float64

	// Horizon, Drain, DrainLimit, LatencySamples and SeriesCap have
	// sim.Config semantics; Check admits a horizon of at least 1, a
	// drain limit of at least 0, and -1 as the only negative latency
	// sample count or series cap.
	Horizon        int64
	Drain          bool
	DrainLimit     int64
	LatencySamples int
	SeriesCap      int
}

// Built is one built run: the engine inputs, plus the ALOHA p an
// emulation replica is built from.  Config.Kappa is the effective
// decoding threshold the protocol was built for: a descriptor's
// embedded κ wins over Desc.Kappa, and the classical models decode 1.
// Config.Medium is always set, a bare "coded" included, and wraps the
// model in the jammer when the Desc names one.
type Built struct {
	Config  sim.Config
	Proto   protocol.Protocol
	Arrival arrival.Process
	// AlohaP is Desc.AlohaP with its default applied.
	AlohaP float64
}

// checked is what check derives from a Desc: its parsed names and its
// effective κ.
type checked struct {
	model  medium.Spec
	kappa  int
	jammer adversary.Jammer
	adv    adversary.Adversary
}

// Check reports the first rule the descriptor breaks, or nil if Build
// would succeed.  A pairing refusal wraps ErrPairing.
func (d Desc) Check() error {
	_, err := d.check()
	return err
}

// check validates the descriptor: names and numbers first, then the
// pairing rules, then the protocol's minimum κ, so a cell the sweep
// skips as a pairing never fails on a κ it would not run.
func (d Desc) check() (checked, error) {
	var c checked
	var err error
	if c.model, err = medium.ParseSpec(d.Model); err != nil {
		return c, err
	}
	info, ok := protocol.Lookup(d.Protocol)
	if !ok {
		return c, fmt.Errorf("scenario: unknown protocol %q (want one of %s)",
			d.Protocol, strings.Join(protocol.Names(), ", "))
	}
	if d.Arrival != "" && !slices.Contains(arrivals, d.Arrival) {
		return c, fmt.Errorf("scenario: unknown arrival %q (want one of %s)",
			d.Arrival, strings.Join(arrivals, ", "))
	}
	if c.jammer, err = ParseJammer(d.Jammer); err != nil {
		return c, err
	}
	if c.adv, err = adversary.Parse(d.Adversary); err != nil {
		return c, err
	}
	c.kappa = d.Kappa
	if c.model.Model == "classical" {
		c.kappa = 1
	} else if c.model.Kappa != 0 {
		c.kappa = c.model.Kappa
	}
	switch {
	case c.kappa < 1 || c.kappa > maxKappa:
		return c, fmt.Errorf("scenario: κ %d outside [1, 2^30]", c.kappa)
	case d.MaxWindow < 0:
		return c, fmt.Errorf("scenario: window cap %d < 0 (0 = the engine default 4κ)", d.MaxWindow)
	case !(d.Rate >= 0) || math.IsInf(d.Rate, 1):
		return c, fmt.Errorf("scenario: rate %g is not a finite number ≥ 0", d.Rate)
	case d.BatchN < 0:
		return c, fmt.Errorf("scenario: batch size %d < 0 (0 = rate×horizon)", d.BatchN)
	case d.BurstWindow < 0:
		return c, fmt.Errorf("scenario: burst window %d < 0 (0 = %d)", d.BurstWindow, defaultBurstWindow)
	case !(d.AlohaP >= 0 && d.AlohaP <= 1):
		return c, fmt.Errorf("scenario: ALOHA p %g outside [0,1] (0 = %g)", d.AlohaP, defaultAlohaP)
	case d.Horizon < 1:
		return c, fmt.Errorf("scenario: horizon %d < 1", d.Horizon)
	case d.DrainLimit < 0:
		return c, fmt.Errorf("scenario: drain limit %d < 0 (0 = the engine default)", d.DrainLimit)
	case d.LatencySamples < -1:
		return c, fmt.Errorf("scenario: latency samples %d < -1 (0 = the engine default, -1 = off)", d.LatencySamples)
	case d.SeriesCap < -1 || d.SeriesCap == 1:
		return c, fmt.Errorf("scenario: series cap %d is neither -1 (off), 0 (default) nor at least 2", d.SeriesCap)
	}
	_, jams := c.adv.(adversary.Jammer)
	_, adaptive := c.adv.(adversary.Adaptive)
	switch {
	case info.CodedOnly && c.model.Model != "coded":
		return c, pairing("%s is defined for the coded model, not %s", info.Name, c.model)
	case info.NoCDOnly && c.model != (medium.Spec{Model: "classical", CD: medium.CDNone}):
		return c, pairing("%s is a no-collision-detection protocol; pair it with classical:none, not %s", info.Name, c.model)
	case c.jammer != nil && (jams || adaptive):
		return c, pairing("jammer %s and adversary %s are two noise sources; a run takes one", d.Jammer, d.Adversary)
	case adaptive && c.model.MasksSilence():
		return c, pairing("adversary %s reacts to channel feedback, but %s masks silence", d.Adversary, c.model)
	}
	if c.kappa < info.MinKappa {
		return c, fmt.Errorf("scenario: %s needs κ ≥ %d, not %d", info.Name, info.MinKappa, c.kappa)
	}
	return c, nil
}

func pairing(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrPairing}, args...)...)
}

// Build checks the descriptor and builds one run.  engineSeed drives
// the engine (arrivals, jamming, the latency reservoir) and protoSeed
// the protocol's own stream; obs, if non-nil, receives the protocol's
// epochs.  Media, adversaries, protocols and arrival processes are
// stateful, so every call builds fresh ones; Slot.Run builds the same
// run on what its previous trial left.
func (d Desc) Build(engineSeed, protoSeed uint64, obs protocol.EpochObserver) (Built, error) {
	b, _, err := d.build(engineSeed, protoSeed, obs, nil, nil)
	return b, err
}

// build is Build that hands reuseProto (nil, or an instance of
// d.Protocol whose run has returned) and reuseModel (nil, or a model
// medium no run uses any more) to the protocol registry and the model
// descriptor, which re-initialise what they can in place.  It also
// returns the model medium, which Config.Medium wraps when the Desc
// names a jammer.
func (d Desc) build(engineSeed, protoSeed uint64, obs protocol.EpochObserver, reuseProto protocol.Protocol, reuseModel medium.Medium) (Built, medium.Medium, error) {
	c, err := d.check()
	if err != nil {
		return Built{}, nil, err
	}
	alohaP := d.AlohaP
	if alohaP == 0 {
		alohaP = defaultAlohaP
	}
	cfg := sim.Config{
		Kappa:          c.kappa,
		MaxWindow:      d.MaxWindow,
		Horizon:        d.Horizon,
		Drain:          d.Drain,
		DrainLimit:     d.DrainLimit,
		Seed:           engineSeed,
		LatencySamples: d.LatencySamples,
		SeriesCap:      d.SeriesCap,
		Adversary:      c.adv,
	}
	// A bare "coded" takes the engine's default window cap (4κ); a
	// descriptor that embeds κ reads MaxWindow 0 as no cap.
	window := d.MaxWindow
	if c.model == (medium.Spec{Model: "coded"}) {
		window = cfg.Window()
	}
	model, err := c.model.Rebuild(reuseModel, c.kappa, window)
	if err != nil {
		return Built{}, nil, err
	}
	cfg.Medium = medium.JamAdversary(model, c.jammer, engineSeed^jamSeedSalt)
	proto := protocol.Rebuild(d.Protocol, protocol.Params{
		Kappa: c.kappa, Rand: rng.New(protoSeed), AlohaP: alohaP, EpochObserver: obs,
	}, reuseProto)
	return Built{Config: cfg, Proto: proto, Arrival: d.arrival(), AlohaP: alohaP}, model, nil
}

// Slot runs trials one after another, each on what the one before it
// left: the engine buffers of its sim.Runner, and the previous trial's
// protocol and model medium (never a jammer's wrapper, which is built
// fresh per trial), which the registry and the model descriptor
// re-initialise in place (protocol.Info.Build, medium.Spec.Rebuild)
// when the next trial names the same protocol and the same channel
// model — at any κ, window cap or feedback mode — instead of building
// fresh ones.  What the next trial does not name is dropped, so a Slot
// holds at most one trial's state, and it takes back only what a trial
// that returned ran on: a trial that panics leaves the Slot holding
// nothing.  A Slot's Run
// returns exactly the Result a fresh build run by sim.Run gives, save
// that its LatencySample is the Runner's, valid until the Slot's next
// Run.  The zero value is ready to use; a Slot is not safe for
// concurrent use.
type Slot struct {
	runner sim.Runner
	// name, proto and medium are what the last trial ran on, once it
	// returned: its protocol, registered as name, and its model medium.
	name   string
	proto  protocol.Protocol
	medium medium.Medium
}

// Run builds the trial d describes from engineSeed, protoSeed and obs,
// as Desc.Build does, on the Slot's recycled state, and runs it.
func (s *Slot) Run(d Desc, engineSeed, protoSeed uint64, obs protocol.EpochObserver) (*sim.Result, error) {
	var reuse protocol.Protocol
	if s.name == d.Protocol {
		reuse = s.proto
	}
	med := s.medium
	s.name, s.proto, s.medium = "", nil, nil
	b, model, err := d.build(engineSeed, protoSeed, obs, reuse, med)
	if err != nil {
		return nil, err
	}
	res := s.runner.Run(b.Config, b.Proto, b.Arrival)
	s.name, s.proto, s.medium = d.Protocol, b.Proto, model
	return res, nil
}

// arrival builds the arrival process, mapping Rate onto each kind's own
// parameter.
func (d Desc) arrival() arrival.Process {
	switch d.Arrival {
	case "bernoulli":
		return &arrival.Bernoulli{Rate: d.Rate}
	case "poisson":
		return &arrival.Poisson{Lambda: d.Rate}
	case "even":
		return arrival.NewEvenPaced(d.Rate)
	case "burst":
		w := d.BurstWindow
		if w == 0 {
			w = defaultBurstWindow
		}
		return &arrival.WindowBurst{Window: w, PerWindow: max(1, int(d.Rate*float64(w)))}
	}
	n := d.BatchN
	if n == 0 {
		n = max(1, int(d.Rate*float64(d.Horizon)))
	}
	return &arrival.Batch{At: 0, N: n}
}

// ParseJammer decodes a jammer descriptor into an oblivious jamming
// adversary: "none" (or "", a nil Jammer), "random:RATE" (an
// adversary.Random), or "periodic:PERIOD/BURST", which jams the first
// BURST slots of every PERIOD: adversary.BurstGap{BURST, PERIOD−BURST},
// named periodic(BURST/PERIOD), where BURST may be 0.
func ParseJammer(desc string) (adversary.Jammer, error) {
	switch {
	case desc == "" || desc == "none":
		return nil, nil
	case strings.HasPrefix(desc, "random:"):
		adv, err := adversary.Parse(desc)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad jammer %q (want random:RATE with RATE in [0,1])", desc)
		}
		return adv.(*adversary.Random), nil
	case strings.HasPrefix(desc, "periodic:"):
		p, b, ok := strings.Cut(desc[len("periodic:"):], "/")
		period, err1 := strconv.ParseInt(p, 10, 64)
		burst, err2 := strconv.ParseInt(b, 10, 64)
		if !ok || err1 != nil || err2 != nil || period < 1 || burst < 0 || burst > period {
			return nil, fmt.Errorf("scenario: bad jammer %q (want periodic:PERIOD/BURST with 0 ≤ BURST ≤ PERIOD)", desc)
		}
		return &periodic{adversary.BurstGap{Burst: burst, Gap: period - burst}}, nil
	}
	return nil, fmt.Errorf("scenario: unknown jammer %q (want none, random:RATE, or periodic:PERIOD/BURST)", desc)
}

// periodic is the duty cycle a periodic:PERIOD/BURST descriptor names.
// Its name, periodic(BURST/PERIOD), is part of Result.Medium and so of
// every artifact a jammed run writes.
type periodic struct{ adversary.BurstGap }

// Name implements adversary.Adversary.
func (j *periodic) Name() string {
	return fmt.Sprintf("periodic(%d/%d)", j.Burst, j.Burst+j.Gap)
}
