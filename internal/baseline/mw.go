package baseline

import (
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// MWStats aggregates counters for a multiplicative-weights execution.
type MWStats struct {
	Transmissions int64
	Delivered     int64
	UpSteps       int64
	DownSteps     int64
}

// MultiplicativeWeights is a Chang–Jin–Pettie-style contention-resolution
// protocol (SOSA 2019): every pending packet transmits each slot with its
// probability p_i; after a silent slot all probabilities rise by a factor
// (1+ε); after a busy slot with no delivery they fall by (1+ε); after a
// delivery they stay.  On the classical channel (κ = 1, ternary feedback
// silent/success/collision) this is the published algorithm shape, whose
// throughput approaches 1/e − O(ε).
//
// Feedback adaptation for the coded channel: devices cannot detect
// collisions, so "busy slot with no delivery" (neither silence nor a
// decoding event) stands in for collision.  With κ = 1 the two coincide
// exactly, because every good slot fires an immediate size-1 event.
type MultiplicativeWeights struct {
	rand  *rng.Rand
	pop   population
	stats MWStats
}

var _ protocol.Protocol = (*MultiplicativeWeights)(nil)

// MWConfig parametrizes the multiplicative-weights protocol.
type MWConfig struct {
	// Epsilon is the update step; probabilities move by factor (1+Epsilon).
	// Smaller values approach the 1/e bound more closely but adapt slower.
	Epsilon float64
	// P0 is the probability a packet starts with on arrival.
	P0 float64
	// PMax caps the per-packet probability.
	PMax float64
}

// DefaultMWConfig returns the parameters used by the comparison harness.
func DefaultMWConfig() MWConfig {
	return MWConfig{Epsilon: 0.1, P0: 1.0 / 8, PMax: 1.0 / 2}
}

// NewMultiplicativeWeights returns the protocol with the given
// parameters.
func NewMultiplicativeWeights(r *rng.Rand, cfg MWConfig) *MultiplicativeWeights {
	m := new(MultiplicativeWeights)
	m.Reset(r, cfg)
	return m
}

// Reset leaves m exactly as NewMultiplicativeWeights(r, cfg) builds
// one, but keeps the population's storage: its location pages, bucket
// structs and member lists.  NewMultiplicativeWeights is Reset on a
// zero MultiplicativeWeights.
func (m *MultiplicativeWeights) Reset(r *rng.Rand, cfg MWConfig) {
	if r == nil {
		panic("baseline: nil rng")
	}
	m.rand = r
	m.pop.reset(cfg.P0, 1+cfg.Epsilon, cfg.PMax)
	m.stats = MWStats{}
}

// Name implements protocol.Protocol.
func (m *MultiplicativeWeights) Name() string { return "multiplicative-weights" }

// Stats returns a copy of the accumulated counters.
func (m *MultiplicativeWeights) Stats() MWStats { return m.stats }

// Pending implements protocol.Protocol.
func (m *MultiplicativeWeights) Pending() int { return m.pop.Len() }

// Contention returns the sum of transmission probabilities (diagnostic).
func (m *MultiplicativeWeights) Contention() float64 {
	c, _ := m.pop.Contention()
	return c
}

// Inject implements protocol.Protocol.
func (m *MultiplicativeWeights) Inject(now int64, ids []channel.PacketID) {
	for _, id := range ids {
		m.pop.Add(id)
	}
}

// Transmitters implements protocol.Protocol.
func (m *MultiplicativeWeights) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	buf = m.pop.Sample(m.rand, buf)
	m.stats.Transmissions += int64(len(buf))
	return buf
}

// Observe implements protocol.Protocol.
func (m *MultiplicativeWeights) Observe(fb channel.Feedback) {
	if fb.Event != nil {
		for _, id := range fb.Event.Packets {
			if m.pop.Remove(id) {
				m.stats.Delivered++
			}
		}
		return // probabilities unchanged on success
	}
	if m.pop.Len() == 0 {
		return // idle system: nothing to adapt
	}
	if fb.Silent {
		m.pop.Shift(1)
		m.stats.UpSteps++
	} else {
		m.pop.Shift(-1)
		m.stats.DownSteps++
	}
}
