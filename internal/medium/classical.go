package medium

import (
	"fmt"

	"repro/internal/channel"
)

// CD selects the collision-detection feedback a classical medium gives
// its devices.  The classical contention-resolution literature treats
// these capabilities as distinct models with distinct throughput
// ceilings (Jiang–Zheng 2021; Chen–Jiang–Zheng 2021).
//
// One honest caveat about the ordering here: this harness acknowledges
// every success globally (the decoding event is how delivered packets
// leave the system), so on the κ=1 collision channel a device with
// binary carrier sensing can already determine collisions by
// elimination — busy plus no event implies collision.  CDTernary
// therefore adds no information over CDBinary for a protocol willing
// to do that inference; its Feedback.Collision flag states the
// conclusion explicitly instead of leaving it implicit.  The axis that
// changes protocol-visible information is CDNone (silence masked, so
// the elimination argument is unavailable) versus the other two.
type CD uint8

const (
	// CDNone gives devices no channel sensing at all: silence is
	// indistinguishable from collision (Feedback.Silent is always
	// false).  A transmitter still learns of its own success through the
	// decoding event, which models the acknowledgment every variant of
	// the classical model grants.
	CDNone CD = iota
	// CDBinary gives devices binary carrier sensing: they distinguish
	// idle slots from busy ones (Feedback.Silent is truthful) but cannot
	// tell a collision from a success by listening.
	CDBinary
	// CDTernary gives devices full collision detection: idle, success,
	// and collision are all distinguishable (Feedback.Collision is set
	// on collided slots).
	CDTernary
)

// String returns the mode name used in model descriptors.
func (cd CD) String() string {
	switch cd {
	case CDNone:
		return "none"
	case CDBinary:
		return "binary"
	case CDTernary:
		return "ternary"
	}
	return fmt.Sprintf("CD(%d)", uint8(cd))
}

// ParseCD decodes a collision-detection mode name.
func ParseCD(s string) (CD, error) {
	switch s {
	case "none":
		return CDNone, nil
	case "binary":
		return CDBinary, nil
	case "ternary":
		return CDTernary, nil
	}
	return 0, fmt.Errorf("medium: unknown collision-detection mode %q (want none, binary, or ternary)", s)
}

// Classical is the classical collision channel: a slot delivers its
// packet iff exactly one device transmits (κ = 1 semantics; no coding
// gain).  The collision-detection mode governs only what devices hear,
// never what is delivered.
//
// A successful slot fires a size-1 decoding event whose window is the
// slot itself, so protocols written against the coded model's feedback
// run unchanged.  The event storage is reused across slots — successes
// fire every few slots at high load, and the per-slot path must stay
// allocation-free.
type Classical struct {
	cd    CD
	stats channel.Stats
	last  channel.Feedback
	dup   dupCheck

	ev  channel.Event
	pkt [1]channel.PacketID

	lastBad bool
}

var (
	_ Medium   = (*Classical)(nil)
	_ Repeater = (*Classical)(nil)
)

// NewClassical returns a classical collision channel with the given
// collision-detection feedback mode.
func NewClassical(cd CD) *Classical {
	c := new(Classical)
	c.ResetTo(cd)
	return c
}

// ResetTo leaves the medium exactly as NewClassical(cd) builds one while
// keeping its duplicate-check scratch.  NewClassical is ResetTo on a
// zero Classical.
func (c *Classical) ResetTo(cd CD) {
	if cd > CDTernary {
		panic("medium: invalid collision-detection mode")
	}
	c.cd = cd
	c.stats = channel.Stats{}
	c.last = channel.Feedback{}
	c.lastBad = false
}

// Name implements Medium.
func (c *Classical) Name() string { return "classical:" + c.cd.String() }

// Kappa implements Medium: the collision channel decodes one
// transmission per slot.
func (c *Classical) Kappa() int { return 1 }

// Step implements Medium.  Like the coded detector, it panics if txs
// contains a duplicate ID (one device cannot send two packets at
// once), even though colliding identities are otherwise irrelevant.
func (c *Classical) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	switch len(txs) {
	case 0:
		c.lastBad = false
		c.stats.SilentSlots++
		c.setLast(now, channel.Silent, nil)
		return channel.Silent, nil
	case 1:
		c.lastBad = false
		return c.success(now, txs[0])
	default:
		c.dup.check(txs)
		return c.collide(now)
	}
}

// StepRepeat implements Repeater: a collided slot leaves no state
// behind, so replaying one moves a counter and the feedback.
func (c *Classical) StepRepeat(now int64) bool {
	if !c.lastBad {
		panic("medium: StepRepeat without a preceding bad slot")
	}
	c.stats.BadSlots++
	c.setLast(now, channel.Bad, nil)
	return true
}

func (c *Classical) success(now int64, id channel.PacketID) (channel.SlotClass, *channel.Event) {
	c.stats.GoodSlots++
	c.stats.Events++
	c.stats.Delivered++
	c.pkt[0] = id
	c.ev = channel.Event{Slot: now, WindowStart: now, Packets: c.pkt[:1]}
	c.setLast(now, channel.Good, &c.ev)
	return channel.Good, &c.ev
}

func (c *Classical) collide(now int64) (channel.SlotClass, *channel.Event) {
	c.lastBad = true
	c.stats.BadSlots++
	c.setLast(now, channel.Bad, nil)
	return channel.Bad, nil
}

// setLast records the feedback for the just-stepped slot, applying the
// collision-detection masking.
func (c *Classical) setLast(now int64, class channel.SlotClass, ev *channel.Event) {
	c.last = channel.Feedback{
		Slot:      now,
		Silent:    c.cd != CDNone && class == channel.Silent,
		Event:     ev,
		Collision: c.cd == CDTernary && class == channel.Bad,
	}
}

// Feedback implements Medium.
func (c *Classical) Feedback(fb *channel.Feedback) { *fb = c.last }

// MasksSilence reports whether the medium's feedback hides idle slots
// (CDNone: no channel sensing, so Silent is never set).  Adaptive
// adversaries rely on truthful silence for their gap-equals-silence
// determinism rule; sim.Run and the sweep layer reject or skip them on
// masking media.
func (c *Classical) MasksSilence() bool { return c.cd == CDNone }

// AddSilent implements Medium.
func (c *Classical) AddSilent(n int64) {
	if n < 0 {
		panic("medium: negative silent-slot count")
	}
	c.stats.SilentSlots += n
}

// Stats implements Medium.
func (c *Classical) Stats() channel.Stats { return c.stats }

// Reset implements Medium: ResetTo with the medium's own feedback mode.
func (c *Classical) Reset() { c.ResetTo(c.cd) }

// dupChecker lends a jam wrapper the duplicate check its slots run.
func (c *Classical) dupChecker() *dupCheck { return &c.dup }
