// Package adversary is the simulator's first-class adversary layer:
// processes that listen to the channel and decide, slot by slot, how to
// disrupt the protocol — by jamming slots with noise or by injecting
// packets.  It unifies the two disruption channels the related
// literature studies separately: adaptive jamming that reacts to channel
// feedback (Jiang–Zheng, "Robust and Optimal Contention Resolution
// without Collision Detection") and (σ,ρ)-bounded bursty packet
// injection (Chen–Jiang–Zheng, "Tight Trade-off in Contention Resolution
// without Collision Detection").
//
// Every adversary implements Adversary: it observes the per-slot
// feedback devices hear (channel.Feedback, which the medium layer
// re-exports as medium.Feedback) and carries whatever state its
// strategy needs.  The two capability interfaces say what it does with
// that state: a Jammer spoils slots (composed over any channel model by
// medium.JamAdversary), and an Injector is an arrival process that hears
// the channel (composed with a benign workload by arrival.Merge, which
// forwards each slot's feedback to its Observe).
//
// # Determinism contract
//
// Simulations must replay identically from (Config, seed) and must not
// change when the engine fast-forwards provably idle stretches.  Two
// rules make adversaries compatible with both:
//
//  1. Randomized jam decisions are slot-keyed: the rng handed to Jams is
//     reseeded from (seed, slot) before every call, so a decision
//     depends only on the slot asked about, never on how many slots were
//     stepped before it.
//  2. Adaptive state must treat a gap in observed slots as silence.
//     Fast-forwarded slots are provably silent and are never observed;
//     an adversary whose Observe resets on fb.Slot gaps exactly as it
//     resets on observed silence behaves identically whether or not
//     those slots were stepped (see Reactive).
//
// Adversaries are stateful and not safe for concurrent use; construct
// one per run (or Reset between runs).
package adversary

import (
	"fmt"
	"math"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/rng"
)

// Adversary is the common interface: a named, stateful process that
// hears the same per-slot feedback devices do.
type Adversary interface {
	// Name identifies the adversary in reports and artifacts.
	Name() string
	// Observe delivers the feedback of the most recently completed slot.
	// It is called once per stepped slot, in increasing slot order;
	// fast-forwarded idle stretches are not delivered (rule 2 above).
	// The Feedback's Event pointer is only valid during the call.
	Observe(fb channel.Feedback)
	// Reset returns the adversary to its initial state for reuse.
	Reset()
}

// Jammer is an adversary that spoils slots with noise energy.  Compose
// one over any channel model with medium.JamAdversary.
type Jammer interface {
	Adversary
	// Jams reports whether slot now is jammed.  Slots are asked about in
	// increasing order, before each slot's Observe, but the same slot may
	// be asked about more than once (the engine's fast-forward probes a
	// slot and may then step it fully).  The rng is reseeded from
	// (seed, now) before every call, so randomized decisions are
	// slot-keyed (rule 1 above) and repeated calls agree; implementations
	// must not mutate state in Jams.
	Jams(now int64, r *rng.Rand) bool
}

// Adaptive is the marker interface for adversaries whose disruption
// decisions depend on observed feedback (their Observe carries state).
// Implementations must follow determinism rule 2 above, and the sweep
// layer skips them on media whose feedback masks silence (the signal
// the rule is defined in terms of).  Every feedback-reactive adversary
// must declare itself by implementing the marker, or those protections
// silently lapse.
type Adaptive interface {
	Adversary
	// Adaptive marks the adversary as feedback-reactive.  It is never
	// called; implementing it is the declaration.
	Adaptive()
}

// Injector is an adversary that injects packets: an arrival process
// that hears the channel.  Its Observe makes it an arrival.Observer, so
// it drives a run directly or composes with a benign process via
// arrival.Merge and hears each stepped slot either way.
type Injector interface {
	Adversary
	arrival.Process
}

// Random jams each slot independently with probability Rate — the
// oblivious baseline jammer.
type Random struct {
	Rate float64
}

// validRandomRate is the single source of the random jammer's rate
// bound, shared by NewRandom (panicking) and Parse (error-returning);
// the ordered form rejects NaN, which would yield a silently inert
// jammer.
func validRandomRate(rate float64) bool { return rate >= 0 && rate <= 1 }

// NewRandom returns the oblivious random jammer with the given per-slot
// jamming probability in [0, 1].
func NewRandom(rate float64) *Random {
	if !validRandomRate(rate) {
		panic("adversary: Random needs a rate in [0, 1]")
	}
	return &Random{Rate: rate}
}

// Name implements Adversary.
func (j *Random) Name() string { return fmt.Sprintf("random(%.3f)", j.Rate) }

// Observe implements Adversary: the random jammer is oblivious.
func (j *Random) Observe(channel.Feedback) {}

// Reset implements Adversary.
func (j *Random) Reset() {}

// Jams implements Jammer.  It consumes only slot-keyed randomness, so it
// is invariant under fast-forwarding.
func (j *Random) Jams(now int64, r *rng.Rand) bool { return r.Bernoulli(j.Rate) }

// BurstGap is a duty-cycled jammer: it jams Burst consecutive slots,
// stays quiet for Gap slots, and repeats, so every period of Burst+Gap
// slots opens with its burst.  Its average rate is B/(B+gap), with all
// the energy concentrated in bursts: bursts longer than a decoding
// epoch reliably forge overfull epochs, which the same average rate
// spread randomly almost never does.
type BurstGap struct {
	Burst int64
	Gap   int64
}

// validBurstGap is the single source of BurstGap's parameter bounds,
// shared by NewBurstGap (panicking) and Parse (error-returning).  The
// MaxSlotParam caps keep the period arithmetic from overflowing into a
// silently inert jammer.
func validBurstGap(burst, gap int64) bool {
	return burst >= 1 && burst <= MaxSlotParam && gap >= 0 && gap <= MaxSlotParam
}

// NewBurstGap returns a duty-cycled jammer: burst jammed slots (≥ 1),
// gap clean slots (≥ 0), repeating; both capped at MaxSlotParam.
func NewBurstGap(burst, gap int64) *BurstGap {
	if !validBurstGap(burst, gap) {
		panic("adversary: BurstGap needs 1 ≤ burst ≤ MaxSlotParam and 0 ≤ gap ≤ MaxSlotParam")
	}
	return &BurstGap{Burst: burst, Gap: gap}
}

// Name implements Adversary.
func (j *BurstGap) Name() string { return fmt.Sprintf("burst(%d/%d)", j.Burst, j.Gap) }

// Observe implements Adversary: the duty cycle is oblivious.
func (j *BurstGap) Observe(channel.Feedback) {}

// Reset implements Adversary.
func (j *BurstGap) Reset() {}

// Jams implements Jammer.  The decision is a pure function of the slot
// number, so it is trivially slot-keyed.
func (j *BurstGap) Jams(now int64, _ *rng.Rand) bool {
	period := j.Burst + j.Gap
	if period <= 0 {
		return false
	}
	return now%period < j.Burst
}

// Reactive is the adaptive jammer: it watches for a decoding window
// filling up — Trigger consecutive audibly-busy slots with no decoding
// event, i.e. near-decode feedback — and then jams the next Burst slots,
// stretching the window toward the protocol's timeout and spoiling the
// decode it was about to earn.  Against Decodable Backoff this attacks
// the κ-slot epoch timeout directly: a burst placed after κ−1 good slots
// wastes the whole epoch, where the same energy spent obliviously mostly
// hits idle or already-doomed slots.
//
// Reactive follows the package's determinism contract: arming depends
// only on observed feedback, the armed window is keyed to slot numbers
// (never to a count of observed slots), a gap in observed slots resets
// the busy run exactly as observed silence does, and the jammer's own
// noise — audibly busy to everyone, including itself — never re-triggers
// the attack.
type Reactive struct {
	// Trigger is how many consecutive busy, event-free slots arm the
	// jammer (≥ 1).
	Trigger int64
	// Burst is how many slots are jammed once armed (≥ 1).
	Burst int64

	run        int64 // consecutive busy, event-free slots observed
	lastSlot   int64 // last observed slot, -1 initially
	armedUntil int64 // jam every slot < armedUntil
}

// validReactive is the single source of Reactive's parameter bounds,
// shared by NewReactive (panicking) and Parse (error-returning).  The
// MaxSlotParam caps keep the armed-window arithmetic (slot + 1 + burst)
// from overflowing into a silently inert jammer.
func validReactive(trigger, burst int64) bool {
	return trigger >= 1 && trigger <= MaxSlotParam && burst >= 1 && burst <= MaxSlotParam
}

// NewReactive returns an adaptive reactive jammer that arms after
// trigger consecutive busy event-free slots and then jams burst slots;
// both capped at MaxSlotParam.
func NewReactive(trigger, burst int64) *Reactive {
	if !validReactive(trigger, burst) {
		panic("adversary: Reactive needs 1 ≤ trigger ≤ MaxSlotParam and 1 ≤ burst ≤ MaxSlotParam")
	}
	r := &Reactive{Trigger: trigger, Burst: burst}
	r.Reset()
	return r
}

// Name implements Adversary.
func (j *Reactive) Name() string { return fmt.Sprintf("reactive(%d/%d)", j.Trigger, j.Burst) }

// Adaptive marks Reactive as feedback-reactive.
func (j *Reactive) Adaptive() {}

var _ Adaptive = (*Reactive)(nil)

// Reset implements Adversary.
func (j *Reactive) Reset() {
	j.run = 0
	j.lastSlot = -1
	j.armedUntil = 0
}

// Observe implements Adversary; this is where the adaptive state lives.
func (j *Reactive) Observe(fb channel.Feedback) {
	// A gap in observed slots was a fast-forwarded provably idle stretch:
	// had those slots been stepped they would have been silent, so the
	// gap resets the busy run exactly as observed silence does (the
	// package's determinism rule 2).
	if fb.Slot > j.lastSlot+1 {
		j.run = 0
	}
	j.lastSlot = fb.Slot
	if fb.Slot < j.armedUntil {
		// Our own jamming noise: audibly busy, but it must not count
		// toward re-arming or the attack would self-sustain forever.
		j.run = 0
		return
	}
	if fb.Silent || fb.Event != nil {
		// Silence breaks the run; a decoding event means the window
		// closed and the protocol banked the decode — too late to spoil.
		j.run = 0
		return
	}
	j.run++
	if j.run >= j.Trigger {
		// Near-decode: jam the Burst slots after the observed one.  The
		// window is keyed to slot numbers, so Jams decisions stay aligned
		// regardless of stepping.
		j.armedUntil = fb.Slot + 1 + j.Burst
		j.run = 0
	}
}

// Jams implements Jammer: deterministically jam while armed.
func (j *Reactive) Jams(now int64, _ *rng.Rand) bool { return now < j.armedUntil }

// SigmaRho is the (σ,ρ)-bounded arrival adversary of the bursty-arrival
// literature: over any prefix of t slots it may inject at most σ + ρ·t
// packets — a burst allowance σ on top of a long-run rate ρ — and this
// implementation is the greedy worst case, injecting every packet the
// budget admits as early as possible.  That front-loading maximizes the
// instantaneous backlog a protocol must absorb: σ packets land in slot 0
// and a ρ-paced stream follows.
type SigmaRho struct {
	// Sigma is the burst allowance (≥ 0).
	Sigma int64
	// Rho is the sustained injection rate (≥ 0 packets per slot).
	Rho float64

	injected int64 // packets injected so far
}

// MaxRho bounds the sustained (σ,ρ) injection rate: large enough for
// any meaningful workload (a million packets per slot), small enough
// that the budget arithmetic σ + ρ·t cannot overflow over simulable
// horizons.
const MaxRho = 1e6

// MaxSlotParam bounds slot-count and packet-count adversary parameters
// (burst/gap lengths, σ): 2^40 slots dwarfs any simulable horizon while
// keeping every derived sum comfortably inside int64.
const MaxSlotParam = 1 << 40

// validSigmaRho is the single source of SigmaRho's parameter bounds,
// shared by NewSigmaRho (panicking) and Parse (error-returning).  The
// ordered comparisons reject NaN (which passes every negated range
// check), and the caps keep the budget arithmetic overflow-free.
func validSigmaRho(sigma int64, rho float64) bool {
	return sigma >= 0 && sigma <= MaxSlotParam &&
		rho >= 0 && rho <= MaxRho && !(sigma == 0 && rho == 0)
}

// NewSigmaRho returns the (σ,ρ)-bounded front-loading arrival
// adversary.  Both parameters must be non-negative (σ ≤ MaxSlotParam,
// ρ ≤ MaxRho, NaN rejected) and not both zero (the all-zero budget
// never injects).
func NewSigmaRho(sigma int64, rho float64) *SigmaRho {
	if !validSigmaRho(sigma, rho) {
		panic("adversary: SigmaRho needs 0 ≤ sigma ≤ MaxSlotParam and 0 ≤ rho ≤ MaxRho, not both 0")
	}
	return &SigmaRho{Sigma: sigma, Rho: rho}
}

var _ Injector = (*SigmaRho)(nil)

// Name implements Adversary.
func (s *SigmaRho) Name() string { return fmt.Sprintf("sigmarho(%d/%.3f)", s.Sigma, s.Rho) }

// Observe implements Adversary: the greedy schedule is oblivious (the
// budget, not the channel, is the binding constraint).
func (s *SigmaRho) Observe(channel.Feedback) {}

// Reset implements Adversary.
func (s *SigmaRho) Reset() { s.injected = 0 }

// budget returns the cumulative injection allowance through slot now:
// ⌊σ + ρ·(now+1)⌋.
func (s *SigmaRho) budget(now int64) int64 {
	return s.Sigma + int64(s.Rho*float64(now+1))
}

// Injections implements arrival.Process: greedily spend the whole
// available budget.  The count at slot t depends only on t and the
// budget already spent, so skipped injection-free stretches cannot
// change the schedule.
func (s *SigmaRho) Injections(now int64, _ *rng.Rand) int {
	n := s.budget(now) - s.injected
	if n <= 0 {
		return 0
	}
	s.injected += n
	return int(n)
}

// NextAfter implements arrival.Process: the next slot at which the
// budget crosses the next integer.
func (s *SigmaRho) NextAfter(now int64) int64 {
	if s.budget(now) > s.injected {
		return now + 1 // backlog of budget to spend immediately
	}
	if s.Rho <= 0 {
		return -1 // σ exhausted and no sustained rate
	}
	// Smallest t+1 with ρ·(t+1) ≥ injected+1−σ.  If the target slot is
	// beyond the representable range (ρ pathologically small), the next
	// injection is unreachable in any simulable horizon: report no
	// further arrivals rather than scanning forever.
	need := float64(s.injected+1-s.Sigma) / s.Rho
	if need >= math.MaxInt64/4 {
		return -1
	}
	// Start a nudge early — returning a slot early is harmless (Injections
	// yields 0), late would skip a due injection — and repair float
	// truncation with a short upward scan.
	t := int64(need) - 2
	if t < now {
		t = now
	}
	for s.budget(t+1) <= s.injected {
		t++
	}
	return t + 1
}
