// Package arrival provides the packet-injection processes the simulator
// feeds to protocols: batches, stochastic streams, and the adversarial
// patterns the paper's model allows (arbitrary injection subject to a
// sliding-window rate bound).  A process that hears the channel is an
// Observer; an injecting adversary (internal/adversary's Injector) is
// one such process, and Merge composes it with a benign workload.
package arrival

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/rng"
)

// Process produces packet arrivals.  The engine calls Injections exactly
// once per simulated slot, in increasing slot order; skipped idle
// stretches are guaranteed arrival-free via NextAfter.
type Process interface {
	// Name identifies the process in reports.
	Name() string
	// Injections returns how many packets arrive at slot now.
	Injections(now int64, r *rng.Rand) int
	// NextAfter returns the smallest slot > now at which Injections may
	// be nonzero, or -1 if no arrivals will ever occur after now.
	NextAfter(now int64) int64
}

// Observer is an optional interface for adaptive processes that react
// to what they hear on the channel (the same feedback devices get).
// Observe has the signature of the adversary layer's Observe, so every
// adversary is an Observer.  The engine calls it once per stepped slot,
// in increasing slot order.
type Observer interface {
	Observe(fb channel.Feedback)
}

// None is an empty arrival process.
type None struct{}

// Name implements Process.
func (None) Name() string { return "none" }

// Injections implements Process.
func (None) Injections(int64, *rng.Rand) int { return 0 }

// NextAfter implements Process.
func (None) NextAfter(int64) int64 { return -1 }

// Batch injects N packets at slot At and nothing else.
type Batch struct {
	At int64
	N  int
}

// Name implements Process.
func (b *Batch) Name() string { return fmt.Sprintf("batch(%d@%d)", b.N, b.At) }

// Injections implements Process.
func (b *Batch) Injections(now int64, _ *rng.Rand) int {
	if now == b.At {
		return b.N
	}
	return 0
}

// NextAfter implements Process.
func (b *Batch) NextAfter(now int64) int64 {
	if now < b.At {
		return b.At
	}
	return -1
}

// Bernoulli injects one packet per slot with probability Rate.
type Bernoulli struct {
	Rate float64
}

// Name implements Process.
func (b *Bernoulli) Name() string { return fmt.Sprintf("bernoulli(%.3f)", b.Rate) }

// Injections implements Process.
func (b *Bernoulli) Injections(now int64, r *rng.Rand) int {
	if r.Bernoulli(b.Rate) {
		return 1
	}
	return 0
}

// NextAfter implements Process.
func (b *Bernoulli) NextAfter(now int64) int64 {
	if b.Rate <= 0 {
		return -1
	}
	return now + 1
}

// Poisson injects a Poisson(Lambda) number of packets per slot.
type Poisson struct {
	Lambda float64
}

// Name implements Process.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson(%.3f)", p.Lambda) }

// Injections implements Process.
func (p *Poisson) Injections(now int64, r *rng.Rand) int {
	return int(r.Poisson(p.Lambda))
}

// NextAfter implements Process.
func (p *Poisson) NextAfter(now int64) int64 {
	if p.Lambda <= 0 {
		return -1
	}
	return now + 1
}

// EvenPaced injects deterministically at the given rate, spreading
// arrivals as evenly as integer slots allow (an accumulator that releases
// a packet whenever it crosses 1).  The smoothest adversary at a given
// rate.
type EvenPaced struct {
	Rate float64
	acc  float64
	last int64
}

// NewEvenPaced returns an even-paced process with the given rate ≥ 0.
func NewEvenPaced(rate float64) *EvenPaced {
	if rate < 0 {
		panic("arrival: negative rate")
	}
	return &EvenPaced{Rate: rate, last: -1}
}

// Name implements Process.
func (e *EvenPaced) Name() string { return fmt.Sprintf("even(%.3f)", e.Rate) }

// Injections implements Process.
func (e *EvenPaced) Injections(now int64, _ *rng.Rand) int {
	if now <= e.last {
		panic("arrival: EvenPaced slots must be strictly increasing")
	}
	// Account for any skipped slots so the long-run rate is exact.
	gap := now - e.last
	e.last = now
	e.acc += e.Rate * float64(gap)
	n := int(e.acc)
	e.acc -= float64(n)
	return n
}

// NextAfter implements Process.
func (e *EvenPaced) NextAfter(now int64) int64 {
	if e.Rate <= 0 {
		return -1
	}
	return now + 1
}

// WindowBurst injects PerWindow packets in a single burst at the start of
// every window of Window slots — the classical worst case for backlog at
// a given window-constrained rate.
type WindowBurst struct {
	Window    int64
	PerWindow int
	// Limit stops injection at slot Limit (0 = no limit), so drain phases
	// can be simulated.
	Limit int64
}

// Name implements Process.
func (w *WindowBurst) Name() string {
	return fmt.Sprintf("burst(%d/%d)", w.PerWindow, w.Window)
}

// Injections implements Process.
func (w *WindowBurst) Injections(now int64, _ *rng.Rand) int {
	if w.Limit > 0 && now >= w.Limit {
		return 0
	}
	if now%w.Window == 0 {
		return w.PerWindow
	}
	return 0
}

// NextAfter implements Process.
func (w *WindowBurst) NextAfter(now int64) int64 {
	next := (now/w.Window + 1) * w.Window
	if w.Limit > 0 && next >= w.Limit {
		return -1
	}
	return next
}

// Disruptor is an adaptive adversary targeting the Decodable Backoff
// admission-control mechanism: it listens to the channel and injects a
// burst immediately after every silent slot — exactly when inactive
// packets activate at probability κ^(−1/2), maximizing the contention
// spike.  Wrap it in a Cap to respect a rate bound.
type Disruptor struct {
	BurstSize int
	armed     bool
}

// Name implements Process.
func (d *Disruptor) Name() string { return fmt.Sprintf("disruptor(%d)", d.BurstSize) }

// Injections implements Process.
func (d *Disruptor) Injections(now int64, _ *rng.Rand) int {
	if d.armed {
		d.armed = false
		return d.BurstSize
	}
	return 0
}

// NextAfter implements Process.  The disruptor cannot predict silence, so
// any slot may carry arrivals.
func (d *Disruptor) NextAfter(now int64) int64 { return now + 1 }

// Observe implements Observer.
func (d *Disruptor) Observe(fb channel.Feedback) {
	if fb.Silent {
		d.armed = true
	}
}

// Merge sums two arrival processes: packets from both arrive on the
// shared channel.  It is how an injecting adversary (e.g. the (σ,ρ)
// front-loader in package adversary) composes with a benign workload —
// the protocol serves the union.  Feedback reaches each side that is an
// Observer, so adaptive processes stay adaptive under composition.
type Merge struct {
	A, B Process
}

// Name implements Process.
func (m *Merge) Name() string { return m.A.Name() + "+" + m.B.Name() }

// Injections implements Process.
func (m *Merge) Injections(now int64, r *rng.Rand) int {
	return m.A.Injections(now, r) + m.B.Injections(now, r)
}

// NextAfter implements Process: the earlier of the two sides' next
// arrivals.
func (m *Merge) NextAfter(now int64) int64 {
	a, b := m.A.NextAfter(now), m.B.NextAfter(now)
	switch {
	case a < 0:
		return b
	case b < 0 || a < b:
		return a
	}
	return b
}

// Observe implements Observer, forwarding to both sides.
func (m *Merge) Observe(fb channel.Feedback) {
	if o, ok := m.A.(Observer); ok {
		o.Observe(fb)
	}
	if o, ok := m.B.(Observer); ok {
		o.Observe(fb)
	}
}

// Cap enforces the paper's arrival constraint on an inner process: at
// most Max arrivals in every sliding window of Window slots.  Arrivals
// beyond the budget are discarded (the adversary wanted to inject more
// than the model allows).
type Cap struct {
	Inner  Process
	Window int64
	Max    int

	recent []capEntry // FIFO of (slot, count) within the current window
	inWin  int
}

type capEntry struct {
	slot  int64
	count int
}

// NewCap wraps inner with a sliding-window cap.
func NewCap(inner Process, window int64, max int) *Cap {
	if window < 1 {
		panic("arrival: cap window must be at least 1")
	}
	if max < 0 {
		panic("arrival: negative cap")
	}
	return &Cap{Inner: inner, Window: window, Max: max}
}

// Name implements Process.
func (c *Cap) Name() string {
	return fmt.Sprintf("%s|cap(%d/%d)", c.Inner.Name(), c.Max, c.Window)
}

// Injections implements Process.
func (c *Cap) Injections(now int64, r *rng.Rand) int {
	want := c.Inner.Injections(now, r)
	// Expire entries that left the window (slot <= now-Window).
	cutoff := now - c.Window
	for len(c.recent) > 0 && c.recent[0].slot <= cutoff {
		c.inWin -= c.recent[0].count
		c.recent = c.recent[1:]
	}
	budget := c.Max - c.inWin
	if budget < 0 {
		budget = 0
	}
	n := want
	if n > budget {
		n = budget
	}
	if n > 0 {
		c.recent = append(c.recent, capEntry{slot: now, count: n})
		c.inWin += n
	}
	return n
}

// NextAfter implements Process.
func (c *Cap) NextAfter(now int64) int64 { return c.Inner.NextAfter(now) }

// Observe implements Observer, forwarding to the inner process.
func (c *Cap) Observe(fb channel.Feedback) {
	if o, ok := c.Inner.(Observer); ok {
		o.Observe(fb)
	}
}
