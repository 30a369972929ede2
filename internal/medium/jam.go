package medium

import (
	"repro/internal/adversary"
	"repro/internal/channel"
	"repro/internal/rng"
)

// Jammed composes a jamming adversary over an inner medium: a jammed
// slot is spoiled before the inner medium ever sees it.  A jammed slot
// is audibly busy (never silent) and decode-useless (never good), so it
// classifies as Bad regardless of the real transmitters; like any bad
// slot it does not break the inner detector's decoding windows, because
// the inner medium is simply not stepped.
//
// Jam decisions are keyed to the slot number: the jammer's rng stream is
// reseeded from (seed, slot) for every slot, so a randomized decision
// depends only on the slot being asked about, never on how many slots
// were stepped before it.  Adaptive jammers additionally hear every
// stepped slot's feedback through Observe (the wrapper forwards it after
// filling the caller's struct) and must follow the package adversary
// determinism contract: treat a gap in observed slots as silence, and
// key armed windows to slot numbers.  Together these keep the jam
// pattern aligned when the engine fast-forwards through idle stretches —
// a run takes the same jam pattern whether or not slots in between were
// skipped.  (Fast-forwarded stretches themselves are never consulted: an
// empty system ignores noise, so they stay accounted as silent.)
//
// The alignment guarantee assumes fast-forwarded slots really would
// have been silent, so an adaptive jammer must not be composed over an
// inner medium that itself spoils idle slots (another jam wrapper):
// densely stepped, the inner noise occupies slots the fast path treats
// as silence, and the adaptive state diverges.  sim.Run rejects that
// stacking (an adaptive Config.Adversary over a jammed Config.Medium,
// which is how the scenario builder composes a jammer descriptor).
type Jammed struct {
	inner  Medium
	jammer adversary.Jammer
	seed   uint64
	r      rng.Rand
	dup    *dupCheck // the inner medium's, when it has one

	jammed     int64
	lastJammed bool
	last       channel.Feedback

	// repValid records that the inner medium itself classified the most
	// recently delivered transmitter multiset as Bad.  StepRepeat's
	// non-jammed path requires it: when the previous Bad verdict came
	// from jamming energy, the inner medium never saw the transmitters,
	// so an O(1) replay cannot be validated and the caller must fall
	// back to a full Step.
	repValid bool

	// collisionOnJam: to a device with ternary collision detection,
	// jamming energy is indistinguishable from a collision.
	collisionOnJam bool
}

var (
	_ Medium   = (*Jammed)(nil)
	_ Repeater = (*Jammed)(nil)
)

// JamAdversary wraps inner with a jamming adversary, seeding its
// slot-keyed randomness from seed.  The adversary hears every stepped
// slot's feedback through Observe, so adaptive jammers (e.g.
// adversary.Reactive) work unmodified.  A nil jammer returns inner
// unchanged.
func JamAdversary(inner Medium, j adversary.Jammer, seed uint64) Medium {
	if j == nil {
		return inner
	}
	cl, ok := inner.(*Classical)
	m := &Jammed{
		inner:          inner,
		jammer:         j,
		seed:           seed,
		collisionOnJam: ok && cl.cd == CDTernary,
	}
	if dc, ok := inner.(dupChecker); ok {
		m.dup = dc.dupChecker()
	} else {
		m.dup = new(dupCheck)
	}
	return m
}

// dupChecker lends a wrapper over m the check m borrowed.
func (m *Jammed) dupChecker() *dupCheck { return m.dup }

// Name implements Medium.
func (m *Jammed) Name() string { return m.inner.Name() + "+jam:" + m.jammer.Name() }

// Kappa implements Medium.
func (m *Jammed) Kappa() int { return m.inner.Kappa() }

// Step implements Medium.
func (m *Jammed) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	// Slot-keyed reseed: SplitMix64 expansion decorrelates consecutive
	// slots, and the golden-ratio stride keeps seed^f(now) injective per
	// seed.
	m.r.Seed(m.seed ^ uint64(now)*0x9e3779b97f4a7c15)
	if m.jammer.Jams(now, &m.r) {
		// The inner detector never sees this slot, so enforce its
		// duplicate-transmitter invariant here: a protocol bug must not
		// hide behind the noise.
		m.dup.check(txs)
		m.repValid = false
		return m.jamSlot(now)
	}
	m.lastJammed = false
	class, ev := m.inner.Step(now, txs)
	m.repValid = class == channel.Bad
	return class, ev
}

// StepRepeat implements Repeater.  A slot the jammer spoils replays in
// O(1) regardless of the transmitters (keyed to the slot number, the
// jam decision is reproduced exactly); a clear slot replays only when
// the inner medium itself classified the unchanged multiset as Bad and
// can replay it.  The jam decision for slot now is the same one a full
// Step would make, so a false return costs only the fallback work.
func (m *Jammed) StepRepeat(now int64) bool {
	m.r.Seed(m.seed ^ uint64(now)*0x9e3779b97f4a7c15)
	if m.jammer.Jams(now, &m.r) {
		// Transmitters unchanged since their last validation, so the
		// duplicate check is already covered; repValid keeps its meaning.
		m.jamSlot(now)
		return true
	}
	rep, ok := m.inner.(Repeater)
	if !ok || !m.repValid || !rep.StepRepeat(now) {
		return false
	}
	m.lastJammed = false
	return true
}

// jamSlot applies the state updates of a spoiled slot.
func (m *Jammed) jamSlot(now int64) (channel.SlotClass, *channel.Event) {
	m.jammed++
	m.lastJammed = true
	m.last = channel.Feedback{Slot: now, Collision: m.collisionOnJam}
	return channel.Bad, nil
}

// Feedback implements Medium.  The adversary hears the slot too — it is
// on the channel like any device — so the wrapper forwards the filled
// feedback to its Observe before returning.
func (m *Jammed) Feedback(fb *channel.Feedback) {
	if m.lastJammed {
		*fb = m.last
	} else {
		m.inner.Feedback(fb)
	}
	m.jammer.Observe(*fb)
}

// AddSilent implements Medium.
func (m *Jammed) AddSilent(n int64) { m.inner.AddSilent(n) }

// MasksSilence reports true: jamming energy can land on otherwise idle
// slots, so the composed feedback no longer exposes idleness truthfully
// (regardless of the inner medium's answer).  See medium.MasksSilence.
func (m *Jammed) MasksSilence() bool { return true }

// Stats implements Medium: the inner medium's counters plus the spoiled
// slots, which count as bad (and jammed) exactly as the engine's old
// inline accounting did.
func (m *Jammed) Stats() channel.Stats {
	st := m.inner.Stats()
	st.BadSlots += m.jammed
	st.JammedSlots += m.jammed
	return st
}

// Reset implements Medium, clearing the adversary's adaptive state along
// with the slot accounting.
func (m *Jammed) Reset() {
	m.inner.Reset()
	m.jammer.Reset()
	m.jammed = 0
	m.lastJammed = false
	m.repValid = false
	m.last = channel.Feedback{}
}
