// Package medium abstracts the channel a simulation runs on.  The paper
// studies the Coded Radio Network Model, where a base station decodes up
// to κ simultaneous transmissions; the classical contention-resolution
// literature (e.g. Jiang–Zheng 2021, Chen–Jiang–Zheng 2021) studies the
// collision channel, with or without collision detection.  A Medium is
// the base-station side of any such model: the engine drives it slot by
// slot and forwards its feedback to the protocol, so every protocol can
// be run on every channel model and compared in one artifact.
//
// Four implementations ship:
//
//   - Coded — the κ-threshold decoding channel of the paper
//     (internal/channel behind the interface);
//   - Classical — the collision channel (κ = 1 semantics) with
//     selectable collision-detection feedback: none, binary carrier
//     sensing, or ternary collision detection;
//   - Capture — the high-SNR capture channel: up to κ simultaneous
//     transmissions are additively decodable in the slot itself
//     (bounded-contention-coding spirit), one more destroys the slot;
//   - Jammed (JamAdversary) — a wrapper composing a jamming adversary over
//     any medium, spoiling slots before the inner medium sees them and
//     forwarding per-slot feedback to adaptive jammers.
//
// The per-slot contract is allocation-free: Step reuses its event
// storage and Feedback fills a caller-owned struct, so the engine's hot
// loop performs no interface-driven allocation.
package medium

import (
	"fmt"

	"repro/internal/channel"
)

// Feedback is what devices — and adversaries listening alongside them —
// hear about a slot.  It is channel.Feedback re-exported at the layer
// that defines what a channel model sounds like, so the medium's
// callers (the engine, tooling) can name it without importing the
// detector package.  (Package adversary itself names channel.Feedback
// directly: medium composes adversaries, so the dependency points the
// other way.)
type Feedback = channel.Feedback

// Medium is the base-station side of a channel model.  The engine
// calls, per simulated slot, Step with the transmitting packets and
// then Feedback to collect what devices hear; AddSilent accounts
// fast-forwarded provably idle stretches.
//
// Media are stateful and not safe for concurrent use; construct one per
// run (or Reset between runs).
type Medium interface {
	// Name identifies the channel model in reports and artifacts.
	Name() string

	// Kappa is the decoding threshold: the paper's κ for the coded
	// channel, 1 for the classical collision channel.
	Kappa() int

	// Step processes one slot in which the given packets broadcast,
	// returning the slot class and the decoding event, if one fired.
	// Slots must be fed in increasing time order.  The returned Event
	// (and its Packets slice) is only valid until the next Step call;
	// callers that need it longer must copy it.
	Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event)

	// Feedback fills fb with what devices hear about the most recently
	// stepped slot.  The caller owns fb and reuses it across slots; the
	// medium must overwrite every field.  What devices hear is the
	// model's defining choice: coded devices hear silence and decoding
	// events only, classical devices hear whatever their
	// collision-detection capability exposes.
	Feedback(fb *channel.Feedback)

	// AddSilent accounts n slots that the engine fast-forwarded through
	// because they were provably silent.  Silent slots never change
	// detector state, so only counters move.
	AddSilent(n int64)

	// Stats returns a copy of the accumulated slot and event counters.
	Stats() channel.Stats

	// Reset returns the medium to its initial state (detector state and
	// counters), allowing reuse across runs without reallocation.
	Reset()
}

// Sharded is a medium that accepts a slot's transmitters as ordered
// chunks; StepSharded must be observably identical to Step(now,
// concatenation of chunks).  Only Coded implements it.  No engine path
// calls it: it exists for the benchmark's traced replay of the retired
// staged slot cycle (crnperf's dba-batch), and goes when a later change
// to the benchmark retires that replay.
type Sharded interface {
	StepSharded(now int64, chunks [][]channel.PacketID, fan channel.FanOut) (channel.SlotClass, *channel.Event)
}

// Repeater is an optional Medium capability behind the engine's
// event-driven fast-forward: StepRepeat replays the most recently
// stepped slot's transmitter multiset at slot now in O(1).  The caller
// must have observed that slot classify Bad and must guarantee the
// transmitter multiset is unchanged — bad slots never change detector
// state, so the replay moves counters and feedback only.
//
// StepRepeat returns false, leaving the medium's state untouched, when
// the medium cannot guarantee an O(1) replay — e.g. a jam wrapper whose
// previous Bad verdict came from jamming energy, so the inner medium
// never classified these transmitters.  The caller then falls back to a
// full Step with the same transmitters.
type Repeater interface {
	StepRepeat(now int64) bool
}

// Models lists the known channel-model descriptors in canonical order.
// "classical" is shorthand for "classical:ternary", the strongest
// feedback variant.  Note the information ordering documented on CD:
// because successes are acknowledged, classical:binary and
// classical:ternary are information-equivalent (sweeping both is
// redundant); the axis that changes protocol-visible information is
// none vs the other two.
var Models = []string{"coded", "classical", "classical:none", "classical:binary", "classical:ternary", "capture"}

// dupCheck validates that a transmitter list names distinct packets
// (one device cannot send two packets at once), mirroring the coded
// detector's invariant on slots the inner detector never sees.  It is
// channel.FindDup over a reused scratch, so its memory is bounded by
// the largest slot it has checked.
type dupCheck []channel.PacketID

func (d *dupCheck) check(txs []channel.PacketID) {
	if id, found := channel.FindDup(txs, (*[]channel.PacketID)(d)); found {
		panic(fmt.Sprintf("medium: packet %d transmitted twice in one slot", id))
	}
}

// dupChecker is a medium whose duplicate check a jam wrapper over it
// borrows for the slots it spoils, which the medium never sees.  A
// wrapper lives for one run while the medium below it may be recycled
// from run to run, so the borrowed scratch is already grown.
type dupChecker interface{ dupChecker() *dupCheck }

// MasksSilence reports whether the medium's feedback fails to expose
// provably idle slots as silent — either because the model has no
// channel sensing (classical:none) or because composed jamming energy
// can land on idle slots (any jam wrapper).  Adaptive adversaries rely
// on truthful silence for their gap-equals-silence determinism rule, so
// sim.Run rejects them on masking media and the sweep layer skips the
// cells.
func MasksSilence(m Medium) bool {
	msk, ok := m.(interface{ MasksSilence() bool })
	return ok && msk.MasksSilence()
}

// New constructs a medium from a model descriptor — ParseSpec followed
// by Build.  kappa and maxWindow supply context defaults for the coded
// and capture models when the descriptor embeds none; classical models
// ignore them.
func New(desc string, kappa, maxWindow int) (Medium, error) {
	s, err := ParseSpec(desc)
	if err != nil {
		return nil, err
	}
	return s.Build(kappa, maxWindow)
}
