// Package sim is the discrete-round simulation engine: it wires an
// arrival process, a contention-resolution protocol, and a channel
// medium together, slot by slot, and collects the measurements the
// experiments report (backlog, latency, throughput, slot classes).  The
// medium defaults to the Coded Radio Network Model; Config.Medium swaps
// in any other channel model (see internal/medium).
//
// The engine fast-forwards through provably idle stretches (no pending
// packets and no arrivals, or — for protocols that declare their next
// wake-up — no transmissions), so batch-latency experiments over sparse
// horizons cost time proportional to activity, not wall-clock slots.
package sim

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/arena"
	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/jam"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// Config parametrizes one simulation run.
type Config struct {
	// Kappa is the channel's decoding threshold (≥ 1).  Ignored when
	// Medium is set (the medium knows its own threshold).
	Kappa int
	// MaxWindow caps decoding-window length; 0 selects the default 4κ
	// (the paper shows O(κ) windows suffice).  Use NoWindowCap for an
	// unbounded window.
	MaxWindow int
	// Horizon is the number of slots during which arrivals occur.
	Horizon int64
	// Drain keeps simulating after Horizon until the system empties (or
	// DrainLimit extra slots pass), so completion metrics cover every
	// injected packet.
	Drain bool
	// DrainLimit bounds the drain phase; 0 means max(16×Horizon, 2^20)
	// extra slots — generous enough for batch experiments that use a
	// 1-slot horizon, while still guaranteeing termination when a
	// protocol is stuck.
	DrainLimit int64
	// Seed drives the arrival process randomness.  (Protocols hold their
	// own rng, so one protocol's consumption cannot perturb arrivals.)
	Seed uint64
	// SeriesCap bounds the retained backlog time series (0 = 2048), and
	// SeriesOff (any negative value) records none: Result.BacklogSeries
	// stays nil.
	SeriesCap int
	// LatencySamples bounds the per-packet latencies retained for
	// Result.LatencyQuantile: 0 selects a DefaultLatencySamples-slot
	// seeded reservoir, a positive value a reservoir of that capacity,
	// and LatencySamplesOff (any negative value) disables retention
	// entirely (quantiles are NaN; the Latency summary still
	// accumulates).  Memory is O(LatencySamples) regardless of total
	// arrivals; runs that deliver no more packets than the capacity
	// retain every latency, so their quantiles are exact.
	LatencySamples int
	// Jammer optionally spoils slots with noise (failure injection; see
	// package jam).  The engine composes it over the medium via
	// medium.Jam: jammed slots are audibly busy and decode-useless, and
	// jam decisions are slot-keyed, so they are identical whether or not
	// idle stretches in between were fast-forwarded.  (Fast-forwarded
	// stretches themselves are not consulted for jamming: an empty
	// system ignores noise.)
	Jammer jam.Jammer
	// Medium selects the channel model the run uses; nil selects the
	// coded κ-threshold channel built from Kappa and MaxWindow.  Media
	// are stateful: each run needs one no other run is using, which may
	// be one an earlier run returned, re-initialised in between
	// (medium.Spec.Rebuild, as a scenario.Slot does).  See
	// internal/medium for the implementations.
	Medium medium.Medium
	// Adversary optionally disrupts the run (see internal/adversary).  A
	// jamming adversary is composed over the medium exactly like Jammer
	// (slot-keyed randomness, adaptive state fed by per-slot feedback);
	// an arrival adversary's injections are merged with the configured
	// arrival process, subject to the same Horizon.  Adversaries are
	// stateful: construct one per run, never share across concurrent
	// runs.
	Adversary adversary.Adversary
}

// NoWindowCap disables the decoding-window length cap.
const NoWindowCap = -1

// DefaultLatencySamples is the latency-reservoir capacity selected by
// Config.LatencySamples = 0.  It is sized so quick-scale runs (and the
// committed benchmark grid) deliver fewer packets than the capacity and
// therefore keep exact quantiles, while bounding retention at any n.
const DefaultLatencySamples = 16384

// LatencySamplesOff disables per-run latency retention in
// Config.LatencySamples: Result.LatencySample stays nil and
// LatencyQuantile returns NaN.
const LatencySamplesOff = -1

// SeriesOff disables the backlog time series in Config.SeriesCap:
// Result.BacklogSeries stays nil and SegmentMeanBacklog returns 0.
const SeriesOff = -1

// Window is the decoding-window cap of the coded channel the engine
// builds when Medium is nil, in medium.NewCoded's terms: 4κ for a zero
// MaxWindow, 0 (uncapped) for NoWindowCap, and MaxWindow otherwise.
func (c *Config) Window() int {
	switch {
	case c.MaxWindow == NoWindowCap:
		return 0
	case c.MaxWindow == 0:
		return 4 * c.Kappa
	default:
		return c.MaxWindow
	}
}

// Result holds the measurements of one run.
type Result struct {
	Protocol string
	Arrival  string
	Medium   string // channel-model name, e.g. "coded" or "classical:ternary"
	Kappa    int
	Horizon  int64

	Arrivals  int64
	Delivered int64
	Pending   int // backlog when the run ended

	FirstArrival int64 // -1 if none
	LastDelivery int64 // -1 if none
	Elapsed      int64 // total slots simulated (including drain)

	MaxBacklog int
	// PeakInFlight is the high-water mark of the engine's per-packet
	// bookkeeping (packets injected but not yet delivered).  Entries
	// are freed on delivery, so engine memory is proportional to this —
	// which tracks MaxBacklog — never to total arrivals.
	PeakInFlight int
	// BacklogSeries is the down-sampled backlog after every slot (nil if
	// Config.SeriesCap was negative).
	BacklogSeries *stats.Series

	Latency stats.Summary // per delivered packet, in slots
	// LatencySample is the bounded, seeded latency reservoir backing
	// LatencyQuantile (nil if Config.LatencySamples was negative).  A
	// Runner's Result shares it with the Runner: it is valid only until
	// that Runner's next Run.
	LatencySample *stats.Reservoir

	Channel channel.Stats
}

// CompletionThroughput is delivered packets per slot over the span from
// first arrival to last delivery — the batch throughput measure
// (Theorem 16 asks completion time n(1+10/κ)+O(κ), i.e. throughput → 1).
func (r *Result) CompletionThroughput() float64 {
	if r.Delivered == 0 || r.LastDelivery < r.FirstArrival {
		return 0
	}
	return float64(r.Delivered) / float64(r.LastDelivery-r.FirstArrival+1)
}

// LatencyQuantile returns the q-quantile of packet latency from the
// bounded latency reservoir (NaN with retention disabled or before the
// first delivery).  Quantiles are exact while deliveries fit the
// reservoir capacity, estimates from a uniform subsample beyond it.
func (r *Result) LatencyQuantile(q float64) float64 {
	if r.LatencySample == nil || r.LatencySample.Len() == 0 {
		return math.NaN()
	}
	return r.LatencySample.Quantile(q)
}

// SegmentMeanBacklog averages the backlog series over the fraction range
// [from, to) of the simulated span — used by stability detection (e.g.
// compare [0.4,0.5) against [0.9,1.0)).
func (r *Result) SegmentMeanBacklog(from, to float64) float64 {
	s := r.BacklogSeries
	if s == nil || s.Len() == 0 {
		return 0
	}
	loT := int64(from * float64(r.Elapsed))
	hiT := int64(to * float64(r.Elapsed))
	var sum float64
	var n int
	for i := 0; i < s.Len(); i++ {
		if s.T[i] >= loT && s.T[i] < hiT {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// jamSeedSalt decorrelates the jammer's slot-keyed randomness from the
// arrival stream, which uses Config.Seed directly.
const jamSeedSalt = 0x4a4d // "JM"

// advSeedSalt decorrelates an adversary's slot-keyed randomness from
// both the arrival stream and a legacy Config.Jammer composed in the
// same run.
const advSeedSalt = 0x414456 // "ADV"

// latSeedSalt decorrelates the latency reservoir's replacement stream
// from every other consumer of Config.Seed.
const latSeedSalt = 0x4c4154 // "LAT"

// inflight tracks the inject slot of every in-flight packet.  Entries
// are freed on delivery, so the retained bookkeeping is proportional to
// the instantaneous backlog (peak records the high-water mark) — never
// to total arrivals — which is what lets batch runs scale to millions
// of packets in bounded memory.  Packet IDs are issued sequentially, so
// the live IDs form a dense sliding band: the paged arena keeps lookups
// off the map runtime and recycles the pages of departed bands, which
// preserves the backlog-proportional memory bound.
type inflight struct {
	at   arena.Index[int64]
	peak int
}

// reset empties the bookkeeping for a new run, keeping its pages.
func (f *inflight) reset() {
	f.at.Reset()
	f.peak = 0
}

// add records a packet injected at the given slot.
func (f *inflight) add(id channel.PacketID, slot int64) {
	f.at.Put(int64(id), slot)
	if n := f.at.Len(); n > f.peak {
		f.peak = n
	}
}

// take returns a packet's inject slot and frees its entry.
func (f *inflight) take(id channel.PacketID) int64 {
	slot, ok := f.at.Delete(int64(id))
	if !ok {
		panic(fmt.Sprintf("sim: delivery of unknown packet %d", id))
	}
	return slot
}

// Run simulates one execution: the Loop adjudicates each slot (medium
// composition, arrivals, feedback, accounting, fast-forward) while Run
// drives the protocol through Inject, Transmitters, Observe and Pending,
// plus the optional Coaster and Waker capabilities.
func Run(cfg Config, proto protocol.Protocol, arr arrival.Process) *Result {
	return new(Runner).Run(cfg, proto, arr)
}

// Runner runs simulations one after another on reused engine buffers:
// the in-flight arena's pages, the latency reservoir's storage and the
// packet-ID and transmitter buffers carry over from one Run to the
// next, so a caller running many trials stops paying for them per run.
// A Runner's Run returns exactly what sim.Run returns for the same
// arguments, except that the Result's LatencySample is the Runner's own
// reservoir, valid only until the Runner's next Run.  The zero value is
// ready to use; a Runner is not safe for concurrent use.
type Runner struct {
	fl    inflight
	lat   stats.Reservoir
	idBuf []channel.PacketID
	txs   []channel.PacketID
}

// Run simulates one execution, as sim.Run does, on the Runner's buffers.
func (r *Runner) Run(cfg Config, proto protocol.Protocol, arr arrival.Process) *Result {
	l := r.loop(cfg, proto.Name(), arr)
	m := l.Medium()

	// Event-driven fast-forward through runs of identical bad slots:
	// the protocol's coast (protocol.Coaster, asked right after
	// Transmitters) freezes its transmitter set through coastEnd while
	// slots are heard busy without an event, and each covered slot that
	// follows a Bad one replays it in O(1) via medium.Repeater instead of
	// re-collecting and re-validating thousands of transmitters.  Every
	// coasted slot still runs arrivals, feedback, Observe, and per-slot
	// accounting, so results — including RNG streams — are unchanged.
	rep, _ := m.(medium.Repeater)
	co, _ := proto.(protocol.Coaster)
	if rep == nil {
		co = nil
	}
	var wake func(int64) int64
	if w, ok := proto.(protocol.Waker); ok {
		wake = w.NextWake
	}
	// coastEnd passes the current slot only through co, hence with rep.
	coastEnd := int64(-1)
	txs := r.txs[:0]

	for l.Running(proto.Pending()) {
		now := l.Now()
		// Arrivals (only before the horizon).
		if ids := l.InjectNow(); len(ids) > 0 {
			proto.Inject(now, ids)
		}
		// One channel slot: collect the transmitters and step the medium
		// (or replay in O(1) while coasting through repeated bad slots),
		// then broadcast the feedback.
		var class channel.SlotClass
		var ev *channel.Event
		if now <= coastEnd && rep.StepRepeat(now) {
			class, ev = channel.Bad, nil
		} else {
			txs = proto.Transmitters(now, txs[:0])
			if co != nil {
				coastEnd = co.CoastUntil(now)
			}
			class, ev = m.Step(now, txs)
		}
		proto.Observe(l.Observe(ev))
		backlog := proto.Pending()
		l.Record(backlog)

		// Only a Bad slot leaves the medium's detector state untouched
		// (and is heard busy without an event), so any other slot ends the
		// replay; the next full step asks the protocol again.
		if class != channel.Bad {
			coastEnd = now
		}

		// Advance, fast-forwarding when provably nothing happens; the
		// protocol's wake declaration only counts while not coasting.
		advWake := wake
		if coastEnd > now {
			advWake = nil
		}
		if !l.Advance(backlog, advWake) {
			break
		}
	}
	r.idBuf, r.txs = l.idBuf, txs
	return l.Finish(proto.Pending())
}

// String summarizes the result in one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s on %s κ=%d: arrivals=%d delivered=%d pending=%d maxBacklog=%d thpt=%.3f",
		r.Protocol, r.Arrival, r.Medium, r.Kappa, r.Arrivals, r.Delivered, r.Pending,
		r.MaxBacklog, r.CompletionThroughput())
}
