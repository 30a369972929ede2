package crn

import (
	"context"
	"net/http"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cache/httpstore"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/jam"
	"repro/internal/medium"
	"repro/internal/nocd"
	"repro/internal/potential"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// PacketID identifies a packet; the engine assigns IDs in arrival order.
type PacketID = channel.PacketID

// Event is a decoding event delivering the packets of a decoding window.
type Event = channel.Event

// Feedback is what devices hear about a slot: silence and decoding
// events (devices cannot distinguish good slots from bad ones).
type Feedback = channel.Feedback

// Protocol is a contention-resolution protocol; see NewDecodableBackoff
// and the baseline constructors, or implement your own.
type Protocol = protocol.Protocol

// Arrivals is a packet-injection process; see NewBatch, NewBernoulli,
// NewWindowBurst, and friends.
type Arrivals = arrival.Process

// Config parametrizes a simulation run.  One run executes on one
// goroutine; RunTrials and the sweep layer spread independent trials
// over cores.
type Config = sim.Config

// Result holds the measurements of a run.
type Result = sim.Result

// NoWindowCap disables the decoding-window length cap in Config.MaxWindow.
const NoWindowCap = sim.NoWindowCap

// DefaultLatencySamples is the latency-reservoir capacity selected by
// Config.LatencySamples = 0: quantiles stay available at any scale with
// bounded memory, and are exact whenever a run delivers no more packets
// than the capacity.
const DefaultLatencySamples = sim.DefaultLatencySamples

// LatencySamplesOff disables per-run latency retention in
// Config.LatencySamples (LatencyQuantile returns NaN).
const LatencySamplesOff = sim.LatencySamplesOff

// EpochInfo describes one completed Decodable Backoff epoch, as passed to
// epoch observers.
type EpochInfo = protocol.EpochInfo

// Channel is the Coded Radio Network Model base station; most users
// drive it through Run, but it can be stepped directly.
type Channel = channel.Channel

// NewChannel returns a coded radio channel with decoding threshold kappa
// and a decoding-window length cap (0 = unbounded).
func NewChannel(kappa, maxWindow int) *Channel { return channel.New(kappa, maxWindow) }

// Medium is the base-station side of any channel model: the engine
// drives it slot by slot and forwards its feedback to the protocol.
// Config.Medium selects one (nil = the coded channel built from
// Config.Kappa/MaxWindow); see ParseMedium and MediumSpec.Build.
type Medium = medium.Medium

// MediumSpec is the parsed form of a channel-model descriptor — the one
// canonical currency the CLIs, sweep expansion, and the emulator resolve
// media through.  Zero-valued Kappa/MaxWindow fields mean "from
// context": Build fills them from its arguments.  String returns the
// canonical descriptor and ParseMedium round-trips it.
type MediumSpec = medium.Spec

// ParseMedium parses a channel-model descriptor:
//
//	coded[:K[/W]]                    the paper's κ-threshold channel
//	classical[:none|binary|ternary]  the collision channel (default ternary)
//	capture[:K]                      the high-SNR capture channel
//
// Build the resulting spec to obtain a Medium:
//
//	spec, err := crn.ParseMedium("coded:64")
//	med, err := spec.Build(0, 0)
func ParseMedium(desc string) (MediumSpec, error) { return medium.ParseSpec(desc) }

// CollisionDetection selects the feedback a classical medium gives its
// devices: CDNone (no channel sensing), CDBinary (busy/idle carrier
// sensing), or CDTernary (full collision detection).
type CollisionDetection = medium.CD

// Collision-detection modes for NewClassicalMedium.
const (
	CDNone    = medium.CDNone
	CDBinary  = medium.CDBinary
	CDTernary = medium.CDTernary
)

// ModelNames lists the canonical channel-model descriptors, in
// canonical order; ParseMedium accepts these plus parametrized forms
// (coded:K, coded:K/W, capture:K).
var ModelNames = medium.Models

// NewMedium constructs a channel medium from a model descriptor such as
// "coded", "classical", or "classical:none".  kappa and maxWindow
// parametrize the coded model and are ignored by classical ones.
//
// Deprecated: Use ParseMedium followed by MediumSpec.Build, which
// separates descriptor validation from construction and supports the
// full parametrized grammar.
func NewMedium(model string, kappa, maxWindow int) (Medium, error) {
	return medium.New(model, kappa, maxWindow)
}

// NewCodedMedium returns the paper's coded κ-threshold channel as a
// Medium (maxWindow 0 = unbounded decoding windows).
//
// Deprecated: Use ParseMedium("coded") (or "coded:K/W") and
// MediumSpec.Build.
func NewCodedMedium(kappa, maxWindow int) Medium { return medium.NewCoded(kappa, maxWindow) }

// NewClassicalMedium returns the classical collision channel (κ = 1
// semantics: a slot delivers its packet iff exactly one device
// transmits) with the given collision-detection feedback.
//
// Deprecated: Use ParseMedium("classical:none|binary|ternary") and
// MediumSpec.Build.
func NewClassicalMedium(cd CollisionDetection) Medium { return medium.NewClassical(cd) }

// NewCaptureMedium returns the high-SNR capture channel: a slot
// delivers all its packets iff at most kappa devices transmit (additive
// decoding in the spirit of bounded-contention coding), and one
// transmission too many destroys the slot.  At κ = 1 it coincides with
// the classical collision channel.
//
// Deprecated: Use ParseMedium("capture:K") and MediumSpec.Build.
func NewCaptureMedium(kappa int) Medium { return medium.NewCapture(kappa) }

// NewJammedMedium composes a jammer over any medium: jammed slots are
// spoiled before the inner medium sees them.  Jam decisions are
// slot-keyed from seed, so they are independent of stepping history.
//
// Deprecated: Set Config.Jammer (the engine composes it over
// Config.Medium with the run's derived seed) instead of pre-composing
// the medium; jamming is a run property, not a channel model.
func NewJammedMedium(inner Medium, j Jammer, seed uint64) Medium {
	return medium.Jam(inner, j, seed)
}

// DecodableBackoffOption configures NewDecodableBackoff.
type DecodableBackoffOption = core.Option

// WithUpdateFactor overrides the multiplicative probability update
// (paper: κ^(1/4)); used for ablation studies.
func WithUpdateFactor(f float64) DecodableBackoffOption { return core.WithUpdateFactor(f) }

// WithInitialProb overrides the activation probability (paper: κ^(−1/2)).
func WithInitialProb(p0 float64) DecodableBackoffOption { return core.WithInitialProb(p0) }

// WithoutAdmissionControl activates arrivals immediately instead of
// holding them inactive until a silent slot.
func WithoutAdmissionControl() DecodableBackoffOption { return core.WithoutAdmissionControl() }

// WithEpochObserver installs a per-epoch instrumentation callback.
func WithEpochObserver(f func(EpochInfo)) DecodableBackoffOption {
	return core.WithEpochObserver(protocol.EpochObserverFunc(f))
}

// NewDecodableBackoff returns the paper's Decodable Backoff Algorithm for
// decoding threshold kappa (κ ≥ 6), seeded deterministically.
func NewDecodableBackoff(kappa int, seed uint64, opts ...DecodableBackoffOption) *core.DecodableBackoff {
	return core.New(kappa, rng.New(seed), opts...)
}

// NewExponentialBackoff returns classical binary exponential backoff.
func NewExponentialBackoff(seed uint64) Protocol {
	return baseline.NewExponentialBackoff(rng.New(seed))
}

// NewSlottedAloha returns slotted ALOHA with fixed transmission
// probability p.
func NewSlottedAloha(seed uint64, p float64) Protocol {
	return baseline.NewSlottedAloha(rng.New(seed), p)
}

// NewGenieAloha returns backlog-aware ALOHA (p = c/backlog); c = 1 is the
// classical 1/e-throughput reference.
func NewGenieAloha(seed uint64, c float64) Protocol {
	return baseline.NewGenieAloha(rng.New(seed), c)
}

// NewMultiplicativeWeights returns a Chang–Jin–Pettie-style
// multiplicative-weights protocol with default parameters.
func NewMultiplicativeWeights(seed uint64) Protocol {
	return baseline.NewMultiplicativeWeights(rng.New(seed), baseline.DefaultMWConfig())
}

// NewRobustNoCD returns the sawtooth robust contention-resolution
// scheme for channels without collision detection (Jiang–Zheng spirit):
// every transmission-probability scale recurs in every phase, trading a
// constant factor for tolerance of jamming and mis-estimated backlogs.
func NewRobustNoCD(seed uint64) Protocol {
	return nocd.NewRobust(rng.New(seed))
}

// NewUnboundedNoCD returns the unknown-n geometric back-on scheme for
// channels without collision detection (Fernández Anta–Mosteiro–Muñoz
// spirit): monotone rounds of geometrically growing length at halving
// transmission probability.
func NewUnboundedNoCD(seed uint64) Protocol {
	return nocd.NewUnbounded(rng.New(seed))
}

// ProtocolNames lists the registered protocol kinds in canonical axis
// order — the names sweeps and the CLIs select protocols by.
var ProtocolNames = protocol.Names()

// ProtocolRegistry exposes the protocol registry's entries (name,
// one-line summary, medium pairing) in canonical axis order.
func ProtocolRegistry() []protocol.Info { return protocol.Registered() }

// NewBatch injects n packets at slot 0.
func NewBatch(n int) Arrivals { return &arrival.Batch{At: 0, N: n} }

// NewBatchAt injects n packets at the given slot.
func NewBatchAt(at int64, n int) Arrivals { return &arrival.Batch{At: at, N: n} }

// NewBernoulli injects one packet per slot with probability rate.
func NewBernoulli(rate float64) Arrivals { return &arrival.Bernoulli{Rate: rate} }

// NewPoisson injects Poisson(lambda) packets per slot.
func NewPoisson(lambda float64) Arrivals { return &arrival.Poisson{Lambda: lambda} }

// NewEvenPaced injects deterministically at the given rate.
func NewEvenPaced(rate float64) Arrivals { return arrival.NewEvenPaced(rate) }

// NewWindowBurst injects perWindow packets in one burst at the start of
// every window slots — the worst-case-shaped adversary for backlog.
func NewWindowBurst(window int64, perWindow int) Arrivals {
	return &arrival.WindowBurst{Window: window, PerWindow: perWindow}
}

// NewCappedArrivals wraps inner with the paper's sliding-window rate
// constraint: at most max arrivals in every window of the given length.
func NewCappedArrivals(inner Arrivals, window int64, max int) Arrivals {
	return arrival.NewCap(inner, window, max)
}

// NewDisruptor returns an adaptive adversary that injects a burst right
// after every silent slot — when Decodable Backoff activates its inactive
// packets.  Wrap it in NewCappedArrivals to respect a rate bound.
func NewDisruptor(burstSize int) Arrivals {
	return &arrival.Disruptor{BurstSize: burstSize}
}

// Jammer spoils slots with noise energy (failure injection beyond the
// paper's model); see NewRandomJammer and NewPeriodicJammer.  For
// adaptive jammers and arrival adversaries, use Config.Adversary.
type Jammer = jam.Jammer

// Adversary is a first-class adversary: a process that hears per-slot
// channel feedback and disrupts the run by jamming slots or injecting
// packets.  Set Config.Adversary to compose one into a run; see
// NewReactiveJammer, NewBurstJammer, NewSigmaRhoArrivals, and
// ParseAdversary, or implement internal/adversary's interfaces.
type Adversary = adversary.Adversary

// ParseAdversary constructs an adversary from a descriptor: "none" (nil),
// "random:RATE", "burst:B/GAP", "reactive:TRIGGER/BURST", or
// "sigmarho:SIGMA/RHO".  Adversaries are stateful: parse a fresh one per
// run.
func ParseAdversary(desc string) (Adversary, error) { return adversary.Parse(desc) }

// IsAdaptiveAdversary reports whether the adversary reacts to channel
// feedback.  Adaptive adversaries need a medium whose feedback exposes
// idle slots truthfully (see MediumMasksSilence); Run rejects
// incompatible pairings.
func IsAdaptiveAdversary(adv Adversary) bool {
	_, ok := adv.(adversary.Adaptive)
	return ok
}

// MediumMasksSilence reports whether the medium's feedback fails to
// expose provably idle slots as silent — classical:none (no channel
// sensing) and any jam-wrapped medium do.  Such media cannot host an
// adaptive adversary.
func MediumMasksSilence(m Medium) bool { return medium.MasksSilence(m) }

// NewReactiveJammer returns the adaptive reactive jammer: it arms after
// trigger consecutive audibly-busy, event-free slots (a decoding window
// filling toward a decode) and then jams the next burst slots, stretching
// the window toward the protocol's timeout.
func NewReactiveJammer(trigger, burst int64) Adversary {
	return adversary.NewReactive(trigger, burst)
}

// NewBurstJammer returns a duty-cycled jammer: burst jammed slots (≥ 1),
// gap clean slots (≥ 0), repeating.
func NewBurstJammer(burst, gap int64) Adversary {
	return adversary.NewBurstGap(burst, gap)
}

// NewSigmaRhoArrivals returns the (σ,ρ)-bounded arrival adversary: at
// most sigma + rho·t injections over any t-slot prefix, spent as early
// as possible (σ packets at slot 0, a ρ-paced stream after).  As an
// Adversary it merges with Config's arrival process; NewAdversaryArrivals
// adapts it into a standalone Arrivals instead.
func NewSigmaRhoArrivals(sigma int64, rho float64) Adversary {
	return adversary.NewSigmaRho(sigma, rho)
}

// NewAdversaryArrivals adapts an arrival adversary — an Adversary that
// injects packets, like NewSigmaRhoArrivals — into a standalone
// Arrivals process, usable anywhere a benign process is (including
// NewMergedArrivals).  The second result is false if adv does not
// inject.
func NewAdversaryArrivals(adv Adversary) (Arrivals, bool) {
	inj, ok := adv.(adversary.Injector)
	if !ok {
		return nil, false
	}
	return adversary.Arrivals(inj), true
}

// NewMergedArrivals sums two arrival processes: packets from both arrive
// on the shared channel, and channel feedback reaches both (so adaptive
// processes stay adaptive under composition).
func NewMergedArrivals(a, b Arrivals) Arrivals { return &arrival.Merge{A: a, B: b} }

// NewRandomJammer jams each slot independently with the given rate.
func NewRandomJammer(rate float64) Jammer { return &jam.Random{Rate: rate} }

// NewPeriodicJammer jams burst consecutive slots at the start of every
// period slots.
func NewPeriodicJammer(period, burst int64) Jammer {
	return &jam.Periodic{Period: period, Burst: burst}
}

// NewPolynomialBackoff returns polynomial backoff with window (k+1)^exp
// after k failures.
func NewPolynomialBackoff(seed uint64, exp float64) Protocol {
	return baseline.NewPolynomialBackoff(rng.New(seed), exp)
}

// Run simulates one execution of the protocol under the arrival process.
func Run(cfg Config, proto Protocol, arr Arrivals) *Result {
	return sim.Run(cfg, proto, arr)
}

// RunTrials executes n independent trials in parallel with
// deterministically derived seeds; see sim.RunTrials.
func RunTrials(n int, baseSeed uint64, parallelism int, f func(trial int, seed uint64) *Result) []*Result {
	return sim.RunTrials(n, baseSeed, parallelism, f)
}

// SweepSpec declares a scenario grid: the cross-product of channel
// models × protocols × arrivals × κ × rates × jammers × adversaries,
// with per-cell trial counts and engine settings; see RunSweep.
type SweepSpec = sweep.Spec

// SweepGrid is a completed sweep: the normalized spec plus one
// aggregated summary per cell, serializing to deterministic JSON/CSV.
type SweepGrid = sweep.Grid

// SweepOptions tunes sweep execution: parallelism, progress callbacks,
// and the cache/resume pair (see OpenSweepCache).
type SweepOptions = sweep.Options

// SweepShard selects a balanced 1-based slice k/N of a grid's cells;
// the zero value means the whole grid.  See RunSweepShard.
type SweepShard = sweep.Shard

// SweepShardResult is one shard's mergeable artifact; see
// MergeSweepShards.
type SweepShardResult = sweep.ShardResult

// SweepCache is a directory of content-addressed completed-cell
// records; passing one in SweepOptions makes sweeps resumable.
type SweepCache = cache.Store

// SweepSchemaVersion names the engine semantics sweep cell identities
// are minted under; cache records and shard artifacts from other
// versions never merge.
const SweepSchemaVersion = sweep.SchemaVersion

// ParseSweepSpec decodes and validates a JSON sweep spec.
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return sweep.ParseSpec(data) }

// ParseSweepShard decodes a "k/N" shard descriptor with 1 ≤ k ≤ N.
func ParseSweepShard(desc string) (SweepShard, error) { return sweep.ParseShard(desc) }

// RunSweep executes every cell of the spec's grid in parallel.  Same
// spec + same seed ⇒ byte-identical artifacts at any parallelism, and —
// with a cache in opts — across interruptions (completed cells resume
// from their records).
// Cancel ctx to stop early: in-flight trials finish (completed cells
// stay cached under opts.Cache), then the context's error is returned.
func RunSweep(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepGrid, error) {
	return sweep.Run(ctx, spec, opts)
}

// RunSweepShard executes one balanced slice of the spec's grid, seeding
// each trial exactly as an unsharded run would, and returns the shard
// artifact MergeSweepShards reassembles.
// Cancellation follows RunSweep's contract.
func RunSweepShard(ctx context.Context, spec SweepSpec, sh SweepShard, opts SweepOptions) (*SweepShardResult, error) {
	return sweep.RunShard(ctx, spec, sh, opts)
}

// MergeSweepShards reassembles shard artifacts into the full grid,
// verifying they carry one spec (by content hash) and cover its
// expansion exactly; the result is byte-identical to an unsharded run.
func MergeSweepShards(shards []*SweepShardResult) (*SweepGrid, error) {
	return sweep.Merge(shards)
}

// OpenSweepCache opens (creating if needed) a sweep cell cache rooted
// at dir, for SweepOptions.Cache/Resume.
func OpenSweepCache(dir string) (*SweepCache, error) { return cache.Open(dir) }

// SweepBackend is the pluggable cell-store interface distributed sweeps
// share: content-addressed Get/Put/List plus advisory TTL leases
// (Claim).  A *SweepCache satisfies it locally; NewSweepHTTPBackend
// reaches a served store remotely.
type SweepBackend = cache.Backend

// SweepWorkerResult summarizes one work-stealing worker's run: how many
// cells it executed versus loaded from neighbors' records.
type SweepWorkerResult = sweep.WorkerResult

// DefaultSweepLeaseTTL is how long a claimed cell stays one worker's
// before others may steal it, when SweepOptions.LeaseTTL is zero.
const DefaultSweepLeaseTTL = sweep.DefaultLeaseTTL

// RunSweepWorker drains the spec's grid as one work-stealing worker
// against the shared backend in opts.Cache: load-or-claim-and-execute
// per cell, claiming a cell whenever one of opts.Parallelism trial
// slots is free, and waiting out neighbors' leases at the end.  Any
// number of workers — concurrent, killed, restarted — converge on the
// same store contents; AssembleSweep then rebuilds the grid
// byte-identical to RunSweep's.  Cancel ctx to stop claiming and
// starting trials: trials in flight finish and their completed cells
// persist, while a partly run cell's lease lapses as after a kill.
func RunSweepWorker(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepWorkerResult, error) {
	return sweep.RunWorker(ctx, spec, opts)
}

// AssembleSweep reads the full grid back from a drained backend,
// verifying every record against the identity the spec derives for its
// position; the result is byte-identical to an unsharded RunSweep.
// Cancel ctx to stop between cells.
func AssembleSweep(ctx context.Context, spec SweepSpec, backend SweepBackend) (*SweepGrid, error) {
	return sweep.Assemble(ctx, spec, backend)
}

// NewSweepHTTPBackend returns a SweepBackend speaking to a crnserve
// coordinator (see NewSweepHTTPServer) at an absolute http(s) URL.
func NewSweepHTTPBackend(url string) (SweepBackend, error) { return httpstore.NewClient(url) }

// NewSweepHTTPServer wraps a local sweep cache in the HTTP handler
// crnserve mounts, serving one record namespace and one lease table to
// remote workers.
func NewSweepHTTPServer(store *SweepCache) http.Handler { return httpstore.NewServer(store) }

// TheoremRate returns Theorem 11's guaranteed-stable arrival rate,
// 1 − 5/ln κ (non-positive for κ ≤ e⁵ ≈ 148: the constants are loose).
func TheoremRate(kappa int) float64 { return potential.TheoremRate(kappa) }

// TheoremMinWindow returns the smallest window size Theorem 11 admits,
// 16κ².
func TheoremMinWindow(kappa int) int64 { return potential.TheoremMinWindow(kappa) }

// Potential evaluates the paper's potential function Φ from a system
// snapshot (Section 4): n packets total, m inactive, contention c, and
// minimum active joining probability pMin.
func Potential(kappa, n, m int, c, pMin float64) float64 {
	return potential.Compute(kappa, n, m, c, pMin).Total()
}

// EmuConfig parametrizes a slot-synchronized real-network emulation
// run: the scenario axes of a simulation (protocol, medium descriptor,
// arrival, adversary, horizon, seed) plus the station topology and
// transport ("inproc" goroutine swarm or loopback "udp" with optional
// fault injection).  See internal/emu and cmd/crnemu.
type EmuConfig = emu.Config

// EmuFault is the deterministic datagram fault plan (drop/duplicate
// probabilities and seed) for lossy-UDP emulation regimes.
type EmuFault = emu.Fault

// EmuResult is one emulation run's outcome: the engine Result — byte-
// identical to the simulator's over a lossless transport — plus the
// per-station transport statistics (frames, bytes, retransmits, RTT).
type EmuResult = emu.Result

// RunEmulation executes one swarm-mode emulation: cfg.Stations station
// replicas over the configured transport, coordinated in-process, each
// slot adjudicated on the same channel medium the simulator uses.
// Over a lossless transport the returned Result.Sim is byte-identical
// to Run on the identical configuration.  Cancel ctx to abort between
// slots.
func RunEmulation(ctx context.Context, cfg EmuConfig) (*EmuResult, error) {
	return emu.Run(ctx, cfg)
}
