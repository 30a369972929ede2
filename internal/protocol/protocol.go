// Package protocol defines the agent-side interface of the Coded Radio
// Network Model: what a contention-resolution protocol may observe and
// do.  Per the model, devices hear exactly two signals — silent slots and
// decoding events — and decide each slot whether their packet broadcasts.
package protocol

import "repro/internal/channel"

// Protocol is a contention-resolution protocol driving the packets
// currently in the system.  The simulation engine calls, per slot:
//
//  1. Inject for any newly arrived packets,
//  2. Transmitters to collect this slot's broadcasts,
//  3. Observe with the slot's feedback (silence / decoding event).
//
// Implementations own all per-packet state.  Packets delivered by a
// decoding event must leave the system (stop transmitting, not be
// counted by Pending).
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string

	// Inject adds newly arrived packets.  Arrivals at slot `now` hear
	// slot now's feedback but must not transmit before slot now+1.
	Inject(now int64, ids []channel.PacketID)

	// Transmitters appends the IDs broadcasting in slot `now` to buf and
	// returns it.  The engine passes buf with length 0 and reuses it
	// across slots; implementations must not retain it.
	Transmitters(now int64, buf []channel.PacketID) []channel.PacketID

	// Observe delivers the end-of-slot feedback: whether the slot was
	// silent and any decoding event.  Delivered packets leave the system.
	Observe(fb channel.Feedback)

	// Pending returns the number of packets still in the system.
	Pending() int
}

// Waker is an optional interface a protocol can implement to let the
// engine skip slots: NextWake returns the next slot at or after `now` at
// which the protocol may transmit or its state may change.  The engine
// only skips slots when the channel is guaranteed silent in between
// (no packets pending), so most protocols need not implement it.
type Waker interface {
	NextWake(now int64) int64
}

// Coaster is an optional interface for protocols whose transmitter set
// stays frozen over runs of slots (e.g. a Decodable Backoff epoch, whose
// joiners broadcast in every slot until a decoding event, a silent slot
// or the κ-slot timeout ends it).  Both engines ask it at one point:
// right after Transmitters(now), before the slot's Observe.  The answer
// e ≥ now is a promise that holds as long as every slot from now on is
// heard busy without a decoding event: each slot in (now, e] would see
// Transmitters return exactly the list just collected, with no RNG
// draw and no other state change, so an engine may skip those calls.
// The promise must hold across arrivals injected in that range
// (arrivals may change future transmitter sets, never the current
// one).  CoastUntil itself changes no state; returning now promises
// nothing.
//
// Engines still run every covered slot's arrivals, feedback, Observe
// and per-slot accounting.  sim.Run replays covered slots in O(1)
// through medium.Repeater while they keep classifying Bad; the
// emulation coordinator (internal/emu) steps covered slots itself,
// without a round trip to the stations.
type Coaster interface {
	CoastUntil(now int64) int64
}

// NumShards is the fixed shard count of every Partitioned protocol in
// this repository.
const NumShards = 16

// Partitioned is a protocol whose per-slot station work splits across a
// fixed shard set, in the staged cycle
//
//	PrepareSlot(now)                     // centralized decisions
//	ShardTransmitters(now, 0..S-1, ...)  // per-shard transmitter chunks
//	          ... medium Step ...
//	ShardObserve(0..S-1, fb)             // per-shard feedback
//	ReduceSlot(fb)                       // centralized reduce
//
// The contract is bit-exactness: with the ShardTransmitters outputs
// concatenated in shard order, the cycle must emit exactly the
// transmitters, in the same order, and leave the protocol in exactly
// the state (RNG stream position included) that the
// Transmitters/Observe cycle would.
//
// No engine path calls it: sim.Run drives every protocol through one
// serial loop.  It exists only for the benchmark's traced replay of the
// retired staged cycle (crnperf's dba-batch), and goes when a later
// change to the benchmark retires that replay.  Only the Decodable
// Backoff core implements it.
type Partitioned interface {
	Protocol

	// Shards returns the shard count; constant over the lifetime.
	Shards() int

	// PrepareSlot runs the slot's centralized decision step (everything
	// that consumes the RNG or rewrites shared state), once per stepped
	// slot, before any ShardTransmitters call.
	PrepareSlot(now int64)

	// ShardTransmitters appends shard `shard`'s transmitters for slot
	// `now` to buf and returns it.  It must not mutate shared state.
	ShardTransmitters(now int64, shard int, buf []channel.PacketID) []channel.PacketID

	// ShardObserve delivers the slot's feedback to shard `shard`'s local
	// state.  It must not mutate shared state.
	ShardObserve(shard int, fb channel.Feedback)

	// ReduceSlot runs the slot's centralized feedback reduce after every
	// ShardObserve call; afterwards the state must equal what Observe(fb)
	// would have produced.
	ReduceSlot(fb channel.Feedback)

	// ShardPending returns the pending packets owned by shard `shard`
	// (by packet ID mod Shards()); the sum over shards equals Pending().
	ShardPending(shard int) int
}

// PartitionedWaker is the sharded counterpart of Waker: the min of the
// non-negative ShardNextWake answers must equal NextWake.  Like
// Partitioned it exists only for the benchmark's traced replay, which
// type-asserts it; no in-repo protocol implements it.
type PartitionedWaker interface {
	Partitioned
	Waker

	// ShardNextWake returns the next slot at or after now at which shard
	// `shard` may transmit, or -1 if it never will.
	ShardNextWake(now int64, shard int) int64
}

// ShardRange returns the half-open chunk [lo, hi) of an n-element,
// shard-order-preserving contiguous split: concatenating the chunks in
// increasing shard order reproduces the original slice.  Chunk sizes
// differ by at most one.
func ShardRange(n, shard, shards int) (lo, hi int) {
	return n * shard / shards, n * (shard + 1) / shards
}

// EpochKind classifies Decodable Backoff epochs; exported here so the
// measurement harness can consume epoch statistics without importing the
// core package's internals.
type EpochKind uint8

const (
	// EpochSilent ends after one silent slot: no packet joined.
	EpochSilent EpochKind = iota
	// EpochSuccessful ends with a decoding event delivering the joiners.
	EpochSuccessful
	// EpochOverfull ends after kappa slots without a decoding event.
	EpochOverfull
)

// String returns the kind name.
func (k EpochKind) String() string {
	switch k {
	case EpochSilent:
		return "silent"
	case EpochSuccessful:
		return "successful"
	case EpochOverfull:
		return "overfull"
	}
	return "unknown"
}

// EpochInfo describes one completed epoch of an epoch-structured
// protocol, as reported to probes.
type EpochInfo struct {
	Kind    EpochKind
	Start   int64 // first slot of the epoch
	Length  int64 // number of slots
	Joiners int   // packets that joined the epoch
	// Contention is the sum of joining probabilities over active packets
	// at the start of the epoch.
	Contention float64
	// PMin is the minimum joining probability among active packets at
	// the start of the epoch (1 if none).
	PMin float64
	// Active and Inactive are the population counts at the start of the
	// epoch.
	Active, Inactive int
	// Error reports whether this was an error epoch in the paper's sense
	// (Definition 2): silent with contention >= kappa^(1/4), or overfull
	// with contention <= kappa^(3/4).
	Error bool
}

// EpochObserver receives a callback after every completed epoch.
// The Decodable Backoff implementation accepts one for instrumentation.
type EpochObserver interface {
	ObserveEpoch(info EpochInfo)
}

// EpochObserverFunc adapts a function to the EpochObserver interface.
type EpochObserverFunc func(info EpochInfo)

// ObserveEpoch calls f(info).
func (f EpochObserverFunc) ObserveEpoch(info EpochInfo) { f(info) }
