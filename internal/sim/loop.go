package sim

import (
	"slices"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/medium"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Loop is the per-slot adjudication core of the engine, extracted so
// Run and the network emulator (internal/emu) share one implementation
// of everything that is not protocol execution: medium composition
// (jam wrappers, adversaries, adaptive-adversary validation), arrival
// injection and packet-ID issue, feedback fan-out to arrival observers,
// delivery/latency accounting, backlog series, the fast-forward
// advance, and Result assembly.
//
// The caller owns protocol execution and drives the Loop through one
// slot at a time:
//
//	l := sim.NewLoop(cfg, proto.Name(), arr)
//	for l.Running(pending) {
//	    ids := l.InjectNow()          // feed to the protocol
//	    // collect transmitters, step l.Medium()
//	    fb := l.Observe(ev)           // broadcast fb to the protocol
//	    l.Record(backlog)
//	    if !l.Advance(backlog, wake) { break }
//	}
//	res := l.Finish(pending)
//
// Because the Loop owns every source of randomness and accounting that
// Run uses, a caller that makes the same protocol decisions in the same
// slots produces a byte-identical Result — the emulator's lossless
// correctness gate.
type Loop struct {
	cfg        Config
	m          medium.Medium
	arr        arrival.Process
	observer   arrival.Observer
	r          *rng.Rand
	res        *Result
	fl         *inflight
	latSample  *stats.Reservoir
	nextID     channel.PacketID
	idBuf      []channel.PacketID
	fb         medium.Feedback
	drainLimit int64
	end        int64
	now        int64
}

// NewLoop validates cfg and assembles the adjudication state.  The
// medium is composed exactly as Run composes it (jam wrapper, adversary
// jam wrapper, adversary arrival merge); protoName labels the Result.
// It panics on the same invalid configurations Run always has.
func NewLoop(cfg Config, protoName string, arr arrival.Process) *Loop {
	return new(Runner).loop(cfg, protoName, arr)
}

// loop is NewLoop on the Runner's buffers, emptied for the new run.
func (r *Runner) loop(cfg Config, protoName string, arr arrival.Process) *Loop {
	if cfg.Medium == nil && cfg.Kappa < 1 {
		panic("sim: Kappa must be at least 1")
	}
	if cfg.Horizon < 0 {
		panic("sim: negative horizon")
	}
	m := cfg.Medium
	if m == nil {
		m = medium.NewCoded(cfg.Kappa, cfg.Window())
	}
	m = medium.Jam(m, cfg.Jammer, cfg.Seed^jamSeedSalt)
	if cfg.Adversary != nil {
		if _, adaptive := cfg.Adversary.(adversary.Adaptive); adaptive && medium.MasksSilence(m) {
			// An adaptive adversary's gap-equals-silence rule needs the
			// medium below it to report idle slots truthfully.  The
			// composed m is checked, so this catches classical:none, a
			// legacy Config.Jammer (just composed above), and media the
			// caller pre-wrapped with a jammer: in each case idle slots
			// a fast-forwarded run skips as silent would, densely
			// stepped, be observed as busy, and the adaptive state would
			// depend on the stepping.
			panic("sim: an adaptive Adversary needs a medium whose feedback exposes idle slots truthfully (classical:none masks silence; jam wrappers spoil idle slots) — the gap-equals-silence contract cannot hold")
		}
		// One adversary may disrupt on both channels: jam composition
		// wraps the medium, arrival composition merges injections.
		aj, jams := cfg.Adversary.(adversary.Jammer)
		if jams {
			m = medium.JamAdversary(m, aj, cfg.Seed^advSeedSalt)
		}
		if inj, ok := cfg.Adversary.(adversary.Injector); ok {
			advArr := adversary.Arrivals(inj)
			if jams {
				// The jam wrapper already delivers each stepped slot's
				// feedback to Observe; forwarding it through the arrival
				// path too would observe every slot twice.
				advArr = adversary.MutedArrivals(inj)
			}
			arr = &arrival.Merge{A: arr, B: advArr}
		}
	}
	var series *stats.Series
	if cfg.SeriesCap >= 0 {
		seriesCap := cfg.SeriesCap
		if seriesCap == 0 {
			seriesCap = 2048
		}
		series = stats.NewSeries(seriesCap)
	}
	var latSample *stats.Reservoir
	if cfg.LatencySamples >= 0 {
		latCap := cfg.LatencySamples
		if latCap == 0 {
			latCap = DefaultLatencySamples
		}
		r.lat.Reset(latCap, cfg.Seed^latSeedSalt)
		latSample = &r.lat
	}
	r.fl.reset()
	drainLimit := cfg.DrainLimit
	if drainLimit == 0 {
		drainLimit = 16 * cfg.Horizon
		if drainLimit < 1<<20 {
			drainLimit = 1 << 20
		}
	} else if drainLimit < 0 {
		// A negative limit always meant "no drain budget" (the phase ended
		// at the horizon); normalize so the fast-forward clamp below can
		// never pin `next` at or before `now`.
		drainLimit = 0
	}
	observer, _ := arr.(arrival.Observer)
	return &Loop{
		cfg:      cfg,
		m:        m,
		arr:      arr,
		observer: observer,
		r:        rng.New(cfg.Seed),
		res: &Result{
			Protocol:      protoName,
			Arrival:       arr.Name(),
			Medium:        m.Name(),
			Kappa:         m.Kappa(),
			Horizon:       cfg.Horizon,
			FirstArrival:  -1,
			LastDelivery:  -1,
			BacklogSeries: series,
			LatencySample: latSample,
		},
		fl:         &r.fl,
		idBuf:      r.idBuf[:0],
		latSample:  latSample,
		drainLimit: drainLimit,
		end:        cfg.Horizon,
	}
}

// Now is the slot the loop is currently adjudicating.
func (l *Loop) Now() int64 { return l.now }

// Medium is the fully composed medium (jam and adversary wrappers
// included) the caller must Step each slot.
func (l *Loop) Medium() medium.Medium { return l.m }

// Running reports whether another slot should run, given the
// protocol's current backlog.  When it returns false the run is over
// (horizon reached and not draining, drained empty, or drain budget
// exhausted) and Elapsed is final.
func (l *Loop) Running(pending int) bool {
	if l.now >= l.end {
		if !l.cfg.Drain || pending == 0 || l.now >= l.cfg.Horizon+l.drainLimit {
			l.res.Elapsed = l.now
			return false
		}
	}
	return true
}

// InjectNow draws this slot's arrivals, issues their packet IDs, and
// accounts them.  The returned slice (valid until the next call) must
// be fed to the protocol's Inject; it is nil when nothing arrives.
// Packet IDs are sequential from 0, so (first ID, count) fully
// describes the batch — the emulator's injection broadcast relies on
// this.
func (l *Loop) InjectNow() []channel.PacketID {
	if l.now >= l.cfg.Horizon {
		return nil
	}
	n := l.arr.Injections(l.now, l.r)
	if n <= 0 {
		return nil
	}
	l.idBuf = slices.Grow(l.idBuf[:0], n)
	for i := 0; i < n; i++ {
		l.idBuf = append(l.idBuf, l.nextID)
		l.fl.add(l.nextID, l.now)
		l.nextID++
	}
	l.res.Arrivals += int64(n)
	if l.res.FirstArrival < 0 {
		l.res.FirstArrival = l.now
	}
	return l.idBuf
}

// Observe collects the stepped slot's feedback, forwards it to the
// arrival process's observer (adaptive arrivals), and accounts the
// slot's deliveries (ev from the medium's Step; nil if none).  The
// returned Feedback is what every device hears; the caller broadcasts
// it to the protocol.
func (l *Loop) Observe(ev *channel.Event) medium.Feedback {
	l.m.Feedback(&l.fb)
	if l.observer != nil {
		l.observer.ObserveSlot(l.fb)
	}
	if ev != nil {
		l.res.Delivered += int64(len(ev.Packets))
		l.res.LastDelivery = l.now
		for _, id := range ev.Packets {
			lat := float64(l.now - l.fl.take(id) + 1)
			l.res.Latency.Add(lat)
			if l.latSample != nil {
				l.latSample.Add(lat)
			}
		}
	}
	return l.fb
}

// Record accounts the post-slot backlog (max + time series).
func (l *Loop) Record(backlog int) {
	if backlog > l.res.MaxBacklog {
		l.res.MaxBacklog = backlog
	}
	if l.res.BacklogSeries != nil {
		l.res.BacklogSeries.Add(l.now, float64(backlog))
	}
}

// InFlight is the number of packets injected and not yet delivered.
// Every protocol conserves packets, so this is also the protocol's
// backlog after the slot just observed.
func (l *Loop) InFlight() int { return l.fl.at.Len() }

// WakeMatters reports whether Advance from the current slot, with the
// given backlog, can depend on the protocol's wake.  It cannot with an
// empty backlog, nor when an arrival may come in the next slot: the
// next slot is then now+1 whatever the wake says.
func (l *Loop) WakeMatters(backlog int) bool {
	return backlog > 0 && l.nextArrival() != l.now+1
}

// nextArrival is the next slot after now at which an arrival may come,
// or -1 if none will before the horizon.  NextAfter is pure, so it may
// be asked more than once per slot.
func (l *Loop) nextArrival() int64 {
	if l.now+1 < l.cfg.Horizon {
		return l.arr.NextAfter(l.now)
	}
	return -1
}

// Advance moves to the next slot, fast-forwarding through provably
// idle stretches: with an empty backlog it jumps to the next arrival,
// and with a non-nil wake callback (the protocol's next possible
// transmission slot, from protocol.Waker) it skips slots nobody will
// use.  Skipped slots are accounted silent on the medium.  It returns
// false when the run is over because nothing is pending and no arrival
// will ever come; Elapsed is then final.
func (l *Loop) Advance(backlog int, wake func(now int64) int64) bool {
	next := l.now + 1
	if backlog == 0 {
		na := l.nextArrival()
		if na < 0 {
			// Nothing pending and no arrivals will ever come.
			l.res.Elapsed = l.now + 1
			return false
		}
		next = na
	} else if wake != nil {
		// Called on every slot with a backlog, whether or not the answer
		// can move next: a Waker may update its state lazily here.
		if nw := wake(l.now); nw > l.now+1 && l.WakeMatters(backlog) {
			next = nw
			if na := l.nextArrival(); na >= 0 && na < next {
				next = na
			}
		}
	}
	if l.now < l.end && next > l.end {
		next = l.end
	} else if l.cfg.Drain && next > l.end+l.drainLimit {
		// A Waker may declare a wake-up far past the drain budget; the
		// fast-forward target must still respect the documented
		// Horizon+DrainLimit bound on Elapsed and silent-slot counts.
		next = l.end + l.drainLimit
	}
	if skipped := next - (l.now + 1); skipped > 0 {
		l.m.AddSilent(skipped)
	}
	l.now = next
	return true
}

// Finish seals the Result with the protocol's final backlog and the
// medium's slot statistics.
func (l *Loop) Finish(pending int) *Result {
	l.res.Pending = pending
	l.res.PeakInFlight = l.fl.peak
	l.res.Channel = l.m.Stats()
	return l.res
}
