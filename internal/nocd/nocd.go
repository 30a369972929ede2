// Package nocd implements contention resolution for channels without
// collision detection: stations hear nothing about a slot except their
// own delivery (the classical model's acknowledgment), so every
// strategy must be a blind, oblivious transmission-probability
// schedule.  Two schedules ship, both sampling every pending packet
// independently each slot:
//
//   - Unbounded (NewUnbounded) — the unknown-n geometric back-on of
//     Fernández Anta–Mosteiro–Muñoz (arXiv 1107.0234): monotone rounds
//     k = 0, 1, 2, … of length c·2^k at probability 2^-k, so the
//     schedule finds the backlog's scale without knowing n.  Lean, but
//     it never revisits a density it has left behind;
//   - Robust (NewRobust) — the sawtooth schedule in the spirit of
//     Jiang–Zheng robust contention resolution (arXiv 2111.06650):
//     phase i sweeps scales j = 0…i, dwelling c·2^j slots at
//     probability 2^-j, so every density recurs in every phase.  A
//     constant factor slower when nothing goes wrong, but mis-estimated
//     backlogs and jammed stretches cost a phase, not the run.
//
// One centralized-simulator liberty, shared with the genie baseline:
// the schedule rewinds to its densest setting when the system empties,
// which stands in for the per-busy-period restart the papers' stations
// perform on their own arrival.  Within a busy period the schedule uses
// no global knowledge.
//
// Neither scheme implements protocol.Waker, so the engine fast-forwards
// only across provably empty stretches and the gap-equals-silence
// contract holds trivially.
package nocd

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// roundScale is the c in the schedules' dwell lengths c·2^k: how many
// slots a schedule spends at scale k per visit, per unit 2^k.  The
// papers leave it a free constant (any c above a small bound preserves
// the asymptotics); it trades completion time against the probability
// that the productive scale passes before the backlog drains and the
// schedule overshoots into useless sparser rounds.  8 keeps overshoot
// rare across seeds at quick scales.
const roundScale = 8

// maxShift caps the dwell-length shifts so c<<k cannot overflow; at
// that point a visit lasts ~4·2^40 slots, beyond any drain limit.
const maxShift = 40

// Stats aggregates counters for a no-CD execution.
type Stats struct {
	Transmissions int64
	Delivered     int64
}

// schedule is a deterministic transmission-probability schedule: one
// advance per stepped busy slot, rewound at the end of a busy period.
type schedule interface {
	// advance moves to the next slot and returns its probability.
	advance() float64
	// reset rewinds to the schedule's initial (densest) setting.
	reset()
}

// geomSchedule is the unbounded scheme's monotone geometric back-on:
// round k lasts roundScale·2^k slots at probability 2^-k.
type geomSchedule struct {
	round int
	left  int64
}

func (g *geomSchedule) reset() { g.round, g.left = 0, roundScale }

func (g *geomSchedule) advance() float64 {
	if g.left <= 0 {
		if g.round < maxShift {
			g.round++
		}
		g.left = roundScale << g.round
	}
	g.left--
	return math.Ldexp(1, -g.round)
}

// sawSchedule is the robust scheme's sawtooth: phase i sweeps scales
// j = 0…i in order, dwelling roundScale·2^j slots at probability 2^-j.
type sawSchedule struct {
	phase int
	scale int
	left  int64
}

func (s *sawSchedule) reset() { s.phase, s.scale, s.left = 0, 0, roundScale }

func (s *sawSchedule) advance() float64 {
	if s.left <= 0 {
		s.scale++
		if s.scale > s.phase {
			s.phase++
			s.scale = 0
		}
		sh := s.scale
		if sh > maxShift {
			sh = maxShift
		}
		s.left = roundScale << sh
	}
	s.left--
	return math.Ldexp(1, -s.scale)
}

// Scheme is a no-CD sampling protocol: every pending packet transmits
// independently each slot with the schedule's current probability, and
// the only feedback consumed is a packet's own delivery.
type Scheme struct {
	rand  *rng.Rand
	name  string
	sched schedule

	ids []channel.PacketID
	// loc maps each pending packet's ID to its index in ids.  Arrival
	// order keeps live IDs in a dense band, which the paged arena
	// indexes directly.
	loc     arena.Index[int]
	stats   Stats
	scratch []int
	evSort  []channel.PacketID
}

var _ protocol.Protocol = (*Scheme)(nil)

// NewUnbounded returns the unknown-n geometric back-on scheme.
func NewUnbounded(r *rng.Rand) *Scheme {
	return newScheme(r, "unbounded-backon", &geomSchedule{})
}

// NewRobust returns the sawtooth robust contention-resolution scheme.
func NewRobust(r *rng.Rand) *Scheme {
	return newScheme(r, "robust-sawtooth", &sawSchedule{})
}

func newScheme(r *rng.Rand, name string, sched schedule) *Scheme {
	s := &Scheme{name: name, sched: sched}
	s.Reset(r)
	return s
}

// Reset leaves s exactly as its constructor built it, schedule kind
// included, for a new run on stream r, but keeps its storage: the
// packet list, location pages and scratch buffers.  Both constructors
// fix the schedule kind and then call Reset.
func (s *Scheme) Reset(r *rng.Rand) {
	if r == nil {
		panic("nocd: nil rng")
	}
	s.rand = r
	s.sched.reset()
	s.ids = s.ids[:0]
	s.loc.Reset()
	s.stats = Stats{}
}

// Name implements protocol.Protocol.
func (s *Scheme) Name() string { return s.name }

// Stats returns a copy of the accumulated counters.
func (s *Scheme) Stats() Stats { return s.stats }

// Pending implements protocol.Protocol.
func (s *Scheme) Pending() int { return len(s.ids) }

// Inject implements protocol.Protocol.
func (s *Scheme) Inject(now int64, ids []channel.PacketID) {
	for _, id := range ids {
		if s.loc.Has(int64(id)) {
			panic(fmt.Sprintf("nocd: duplicate injection of packet %d", id))
		}
		s.loc.Put(int64(id), len(s.ids))
		s.ids = append(s.ids, id)
	}
}

// Transmitters implements protocol.Protocol: every pending packet
// transmits independently with the schedule's current probability.
// Empty slots (nothing pending) leave the schedule and the RNG
// untouched, which keeps the stream aligned with the engine's
// fast-forwarding across empty stretches.
func (s *Scheme) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	n := len(s.ids)
	if n == 0 {
		return buf
	}
	p := s.sched.advance()
	s.scratch = s.rand.SampleIndices(s.scratch[:0], n, p)
	for _, idx := range s.scratch {
		buf = append(buf, s.ids[idx])
	}
	s.stats.Transmissions += int64(len(s.scratch))
	return buf
}

// Observe implements protocol.Protocol: only deliveries matter — a
// no-CD station hears nothing else.  Delivered packets are removed in
// ascending ID order regardless of the order the event lists them, so
// the protocol's subsequent behavior is insensitive to transmitter and
// event-packet ordering (fuzz-verified).  When the last pending packet
// leaves, the schedule rewinds for the next busy period.
func (s *Scheme) Observe(fb channel.Feedback) {
	if fb.Event == nil {
		return
	}
	s.evSort = append(s.evSort[:0], fb.Event.Packets...)
	slices.Sort(s.evSort)
	for _, id := range s.evSort {
		idx, ok := s.loc.Delete(int64(id))
		if !ok {
			continue
		}
		last := len(s.ids) - 1
		moved := s.ids[last]
		s.ids[idx] = moved
		s.ids = s.ids[:last]
		if idx != last {
			s.loc.Put(int64(moved), idx)
		}
		s.stats.Delivered++
	}
	if len(s.ids) == 0 {
		s.sched.reset()
	}
}
