package baseline

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// SlottedAloha is slotted ALOHA: every pending packet transmits in every
// slot independently with probability p.  Two variants:
//
//   - static p (NewSlottedAloha): the textbook protocol, whose classical
//     throughput peaks at 1/e when p ≈ 1/n;
//   - genie-aided (NewGenieAloha): p = c/backlog each slot, an oracle that
//     knows the exact backlog — the strongest version of ALOHA, used as
//     the 1/e reference line.
//
// ALOHA ignores all feedback except its own delivery, so it needs no
// adaptation for the coded channel.
type SlottedAloha struct {
	rand *rng.Rand
	p    float64 // static probability; 0 means genie mode
	c    float64 // genie numerator (target expected transmitters)
	// q is the probability the next sample draws at, lq its
	// Log1p(-q), and qFor the backlog they were computed for (genie
	// mode recomputes them only when the backlog changes).
	q, lq   float64
	qFor    int
	ids     []channel.PacketID
	loc     arena.Index[int] // packet ID → index in ids
	stats   AlohaStats
	scratch []int
}

// AlohaStats aggregates counters for an ALOHA execution.
type AlohaStats struct {
	Transmissions int64
	Delivered     int64
}

var _ protocol.Protocol = (*SlottedAloha)(nil)

// NewSlottedAloha returns slotted ALOHA with fixed transmission
// probability p in (0, 1].
func NewSlottedAloha(r *rng.Rand, p float64) *SlottedAloha {
	a := new(SlottedAloha)
	a.ResetStatic(r, p)
	return a
}

// NewGenieAloha returns backlog-aware ALOHA transmitting with probability
// min(1, c/backlog) each slot.  c = 1 maximizes classical throughput at
// 1/e.
func NewGenieAloha(r *rng.Rand, c float64) *SlottedAloha {
	a := new(SlottedAloha)
	a.ResetGenie(r, c)
	return a
}

// ResetStatic leaves a exactly as NewSlottedAloha(r, p) builds one, but
// keeps its storage (the packet list, location pages and sampling
// scratch).  NewSlottedAloha is ResetStatic on a zero SlottedAloha.
func (a *SlottedAloha) ResetStatic(r *rng.Rand, p float64) {
	if p <= 0 || p > 1 {
		panic("baseline: ALOHA probability must be in (0,1]")
	}
	a.reset(r, p, 0)
}

// ResetGenie leaves a exactly as NewGenieAloha(r, c) builds one, but
// keeps its storage, as ResetStatic does.
func (a *SlottedAloha) ResetGenie(r *rng.Rand, c float64) {
	if c <= 0 {
		panic("baseline: genie numerator must be positive")
	}
	a.reset(r, 0, c)
}

func (a *SlottedAloha) reset(r *rng.Rand, p, c float64) {
	if r == nil {
		panic("baseline: nil rng")
	}
	a.rand, a.p, a.c = r, p, c
	a.q, a.lq, a.qFor = p, math.Log1p(-p), 0
	a.ids = a.ids[:0]
	a.loc.Reset()
	a.stats = AlohaStats{}
	a.scratch = a.scratch[:0]
}

// Name implements protocol.Protocol.
func (a *SlottedAloha) Name() string {
	if a.p > 0 {
		return "slotted-aloha"
	}
	return "genie-aloha"
}

// Stats returns a copy of the accumulated counters.
func (a *SlottedAloha) Stats() AlohaStats { return a.stats }

// Pending implements protocol.Protocol.
func (a *SlottedAloha) Pending() int { return len(a.ids) }

// Inject implements protocol.Protocol.
func (a *SlottedAloha) Inject(now int64, ids []channel.PacketID) {
	for _, id := range ids {
		if a.loc.Has(int64(id)) {
			panic(fmt.Sprintf("baseline: duplicate injection of packet %d", id))
		}
		a.loc.Put(int64(id), len(a.ids))
		a.ids = append(a.ids, id)
	}
}

// Transmitters implements protocol.Protocol: every pending packet
// transmits independently with the current probability.
func (a *SlottedAloha) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	n := len(a.ids)
	if n == 0 {
		return buf
	}
	if a.p == 0 && n != a.qFor { // genie mode
		a.q, a.qFor = min(a.c/float64(n), 1), n
		a.lq = math.Log1p(-a.q)
	}
	a.scratch = a.rand.SampleIndicesLog(a.scratch[:0], n, a.q, a.lq)
	for _, idx := range a.scratch {
		buf = append(buf, a.ids[idx])
	}
	a.stats.Transmissions += int64(len(a.scratch))
	return buf
}

// Observe implements protocol.Protocol: only deliveries matter.
func (a *SlottedAloha) Observe(fb channel.Feedback) {
	if fb.Event == nil {
		return
	}
	for _, id := range fb.Event.Packets {
		idx, ok := a.loc.Delete(int64(id))
		if !ok {
			continue
		}
		last := len(a.ids) - 1
		moved := a.ids[last]
		a.ids[idx] = moved
		a.ids = a.ids[:last]
		if idx != last {
			a.loc.Put(int64(moved), idx)
		}
		a.stats.Delivered++
	}
}
