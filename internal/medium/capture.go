package medium

import (
	"slices"

	"repro/internal/channel"
)

// Capture is the high-SNR capture channel: a slot delivers every
// transmitted packet iff at most κ devices transmit, in the spirit of
// bounded-contention coding — the base station separates up to κ
// additively superposed codewords, but one transmission too many
// destroys the slot entirely.  It is the memoryless sibling of the
// coded channel: the same κ-ary decoding power, but no cross-slot
// decoding windows, so contention above the threshold is wasted rather
// than banked.  At κ = 1 it degenerates to the classical collision
// channel (the sweep layer skips those cells).
//
// Feedback is coded-style: devices hear truthful silence and decoding
// events, never a collision flag.  A successful slot fires one decoding
// event whose window is the slot itself and whose packets are sorted by
// ID (the Event contract); the event storage is reused across slots so
// the per-slot path stays allocation-free.
type Capture struct {
	kappa int
	stats channel.Stats
	last  channel.Feedback
	dup   dupCheck

	ev   channel.Event
	pkts []channel.PacketID // reused event storage, ≤ κ entries

	lastBad bool
}

var (
	_ Medium   = (*Capture)(nil)
	_ Repeater = (*Capture)(nil)
)

// NewCapture returns a capture channel decoding up to kappa
// simultaneous transmissions per slot.
func NewCapture(kappa int) *Capture {
	c := new(Capture)
	c.ResetTo(kappa)
	return c
}

// ResetTo leaves the medium exactly as NewCapture(kappa) builds one
// while keeping its event storage and duplicate-check scratch.
// NewCapture is ResetTo on a zero Capture.
func (c *Capture) ResetTo(kappa int) {
	if kappa < 1 {
		panic("medium: capture kappa must be at least 1")
	}
	c.kappa = kappa
	c.stats = channel.Stats{}
	c.last = channel.Feedback{}
	c.lastBad = false
}

// Name implements Medium.
func (c *Capture) Name() string { return "capture" }

// Kappa implements Medium.
func (c *Capture) Kappa() int { return c.kappa }

// Step implements Medium.  Like the coded detector, it panics if txs
// contains a duplicate ID (one device cannot send two packets at once),
// on destroyed slots as much as decodable ones.
func (c *Capture) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	switch {
	case len(txs) == 0:
		c.lastBad = false
		c.stats.SilentSlots++
		c.setLast(now, channel.Silent, nil)
		return channel.Silent, nil
	case len(txs) <= c.kappa:
		c.dup.check(txs)
		return c.success(now, txs)
	default:
		c.dup.check(txs)
		return c.collide(now)
	}
}

// StepRepeat implements Repeater: a destroyed slot leaves no state
// behind, so replaying one moves a counter and the feedback.
func (c *Capture) StepRepeat(now int64) bool {
	if !c.lastBad {
		panic("medium: StepRepeat without a preceding bad slot")
	}
	c.stats.BadSlots++
	c.setLast(now, channel.Bad, nil)
	return true
}

func (c *Capture) success(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	c.lastBad = false
	c.stats.GoodSlots++
	c.stats.Events++
	c.stats.Delivered += int64(len(txs))
	c.pkts = append(c.pkts[:0], txs...)
	slices.Sort(c.pkts)
	c.ev = channel.Event{Slot: now, WindowStart: now, Packets: c.pkts}
	c.setLast(now, channel.Good, &c.ev)
	return channel.Good, &c.ev
}

func (c *Capture) collide(now int64) (channel.SlotClass, *channel.Event) {
	c.lastBad = true
	c.stats.BadSlots++
	c.setLast(now, channel.Bad, nil)
	return channel.Bad, nil
}

// setLast records the feedback for the just-stepped slot.  Capture
// devices hear what coded devices hear: truthful silence and decoding
// events, never a collision flag.
func (c *Capture) setLast(now int64, class channel.SlotClass, ev *channel.Event) {
	c.last = channel.Feedback{
		Slot:   now,
		Silent: class == channel.Silent,
		Event:  ev,
	}
}

// Feedback implements Medium.
func (c *Capture) Feedback(fb *channel.Feedback) { *fb = c.last }

// AddSilent implements Medium.
func (c *Capture) AddSilent(n int64) {
	if n < 0 {
		panic("medium: negative silent-slot count")
	}
	c.stats.SilentSlots += n
}

// Stats implements Medium.
func (c *Capture) Stats() channel.Stats { return c.stats }

// Reset implements Medium: ResetTo with the medium's own κ.
func (c *Capture) Reset() { c.ResetTo(c.kappa) }

// dupChecker lends a jam wrapper the duplicate check its slots run.
func (c *Capture) dupChecker() *dupCheck { return &c.dup }
