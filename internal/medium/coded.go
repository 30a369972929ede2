package medium

import "repro/internal/channel"

// Coded is the Coded Radio Network Model of the paper behind the Medium
// interface: a base station that decodes up to κ simultaneous
// transmissions, with decoding events per Definition 1.  Devices hear
// silence and decoding events; they cannot tell good slots from bad
// ones, so Feedback never sets Collision.
type Coded struct {
	ch   channel.Channel
	last channel.Feedback
}

var (
	_ Medium   = (*Coded)(nil)
	_ Sharded  = (*Coded)(nil)
	_ Repeater = (*Coded)(nil)
)

// NewCoded returns the coded medium with decoding threshold kappa and
// decoding-window length cap maxWindow (0 = unbounded), mirroring
// channel.New.
func NewCoded(kappa, maxWindow int) *Coded {
	c := new(Coded)
	c.ResetTo(kappa, maxWindow)
	return c
}

// ResetTo leaves the medium exactly as NewCoded(kappa, maxWindow)
// builds one while keeping the detector's storage (channel.ResetTo), so
// a medium recycled from run to run may change κ without reallocating.
func (c *Coded) ResetTo(kappa, maxWindow int) {
	c.ch.ResetTo(kappa, maxWindow)
	c.last = channel.Feedback{}
}

// Channel exposes the underlying detector for tests and diagnostics.
func (c *Coded) Channel() *channel.Channel { return &c.ch }

// Name implements Medium.
func (c *Coded) Name() string { return "coded" }

// Kappa implements Medium.
func (c *Coded) Kappa() int { return c.ch.Kappa() }

// Step implements Medium.
func (c *Coded) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	class, ev := c.ch.Step(now, txs)
	c.last = channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev}
	return class, ev
}

// StepSharded implements Sharded.  fan is unused: the detector steps the
// concatenated chunks serially.  No engine path calls it (see Sharded).
func (c *Coded) StepSharded(now int64, chunks [][]channel.PacketID, _ channel.FanOut) (channel.SlotClass, *channel.Event) {
	class, ev := c.ch.StepSharded(now, chunks)
	c.last = channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev}
	return class, ev
}

// StepRepeat implements Repeater.  The detector validated these
// transmitters as Bad when the slot was first stepped, so the replay
// always succeeds.
func (c *Coded) StepRepeat(now int64) bool {
	c.ch.StepRepeat(now)
	c.last = channel.Feedback{Slot: now}
	return true
}

// Feedback implements Medium.
func (c *Coded) Feedback(fb *channel.Feedback) { *fb = c.last }

// AddSilent implements Medium.
func (c *Coded) AddSilent(n int64) { c.ch.AddSilent(n) }

// Stats implements Medium.
func (c *Coded) Stats() channel.Stats { return c.ch.Stats() }

// Reset implements Medium: ResetTo with the medium's own κ and window
// cap.
func (c *Coded) Reset() { c.ResetTo(c.ch.Kappa(), c.ch.MaxWindow()) }

// dupChecker lends a jam wrapper the detector's duplicate-check
// scratch.
func (c *Coded) dupChecker() *dupCheck { return (*dupCheck)(c.ch.DupScratch()) }
