// Package core implements the Decodable Backoff Algorithm, the primary
// contribution of "Contention Resolution for Coded Radio Networks"
// (Bender, Gilbert, Kuhn, Kuszmaul, Médard — SPAA 2022).
//
// The algorithm divides time into epochs.  At the start of an epoch every
// active packet j joins independently with its joining probability p_j;
// joiners broadcast in every slot of the epoch.  An epoch ends on the
// first of three triggers, each audible to every device:
//
//   - a silent slot          → silent epoch (nobody joined; length 1)
//   - a decoding event       → successful epoch (joiners delivered)
//   - κ slots with no event  → overfull epoch (more than κ joined)
//
// Probabilities update multiplicatively at epoch ends: ×κ^(1/4) after a
// silent epoch, ÷κ^(1/4) after an overfull one, unchanged after success.
// Newly arrived packets are inactive — they listen but never broadcast —
// and activate with p = κ^(−1/2) upon hearing a silent slot (admission
// control).  The target contention is c* = √κ.
//
// Implementation: since every active packet's probability is p0·f^e for
// the shared factor f = κ^(1/4) and an integer exponent e, the population
// lives in buckets keyed by exponent, with a global lazy shift so that an
// epoch-end update costs O(#buckets) instead of O(#packets), and joiner
// selection uses geometric skipping so an epoch costs O(joiners) expected
// time regardless of backlog size.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/arena"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Stats aggregates protocol-level counters over an execution.
type Stats struct {
	SilentEpochs     int64
	SuccessfulEpochs int64
	OverfullEpochs   int64
	ErrorEpochs      int64 // Definition 2: silent with c >= κ^(1/4), overfull with c <= κ^(3/4)
	Activations      int64
	Delivered        int64
	IdleSlots        int64 // slots with no packets in the system at all
	MaxPending       int
}

// Epochs returns the total number of completed epochs.
func (s Stats) Epochs() int64 { return s.SilentEpochs + s.SuccessfulEpochs + s.OverfullEpochs }

// Option configures a Decodable Backoff instance; used by the ablation
// experiments to weaken individual design ingredients.
type Option func(*DecodableBackoff)

// WithUpdateFactor overrides the multiplicative probability update factor
// (paper: κ^(1/4)).  The ablation E10 uses 2, the classical
// multiplicative-weights speed, to show why the aggressive factor is
// needed.  f must be > 1.
func WithUpdateFactor(f float64) Option {
	return func(d *DecodableBackoff) {
		if f <= 1 {
			panic("core: update factor must exceed 1")
		}
		d.factor = f
	}
}

// WithInitialProb overrides the joining probability a packet starts with
// when it activates (paper: κ^(−1/2)).  Must be in (0, 1].
func WithInitialProb(p0 float64) Option {
	return func(d *DecodableBackoff) {
		if p0 <= 0 || p0 > 1 {
			panic("core: initial probability must be in (0,1]")
		}
		d.p0 = p0
	}
}

// WithoutAdmissionControl makes arrivals activate immediately instead of
// waiting for a silent slot.  Used by ablation E10 to show how newly
// arrived packets disrupt ongoing epochs without the inactive stage.
func WithoutAdmissionControl() Option {
	return func(d *DecodableBackoff) { d.admission = false }
}

// WithEpochObserver installs a callback invoked after every completed
// epoch, used by the measurement harness for contention/potential traces.
func WithEpochObserver(obs protocol.EpochObserver) Option {
	return func(d *DecodableBackoff) { d.observer = obs }
}

// bucket holds the active packets whose joining probability exponent
// (relative to the global shift) equals base.
type bucket struct {
	base int
	ids  []channel.PacketID
}

// location tracks where a packet currently lives so deliveries are O(1).
type where uint8

const (
	inInactive where = iota
	inBucket
	inJoiners
)

// location packs into 12 bytes: the core's share of a batch's time is
// mostly cache misses on these values, so base and idx are int32, kept
// from wrapping by moveShift and index32.
type location struct {
	base  int32 // bucket base when where == inBucket
	idx   int32 // index within the containing slice
	where where
}

type joiner struct {
	id   channel.PacketID
	base int // bucket base the packet came from (for overfull reinsertion)
}

// DecodableBackoff is the paper's protocol.  Create with New; not safe
// for concurrent use.
type DecodableBackoff struct {
	kappa     int
	factor    float64 // multiplicative update factor f (default κ^(1/4))
	p0        float64 // activation probability (default κ^(-1/2))
	eCap      int     // exponent at which p0·f^e reaches 1 (probability cap)
	admission bool
	rand      *rng.Rand
	observer  protocol.EpochObserver

	shift   int       // global exponent shift: effective exponent = base + shift
	buckets []*bucket // sorted by base; indexed by binary search (≤ ~40 buckets live)
	// freeBuckets recycles bucket structs so epoch churn (buckets empty
	// and refill constantly) stays off the allocator.
	freeBuckets []*bucket
	overScratch []*bucket
	inactive    []channel.PacketID
	joiners     []joiner
	// loc tracks where each pending packet lives so deliveries are O(1).
	// A paged arena keyed by packet ID: arrival order keeps live IDs in a
	// dense band, so the arena is both faster than a map on the per-epoch
	// paths and bounded by the backlog span (pages of departed bands are
	// recycled).
	loc arena.Index[location]

	active int // packets currently in buckets (excludes joiners and inactive)
	// shardPending counts pending packets per shard (id mod NumShards)
	// for ShardPending, which only the benchmark's traced replay reads.
	shardPending [protocol.NumShards]int

	inEpoch      bool
	epochStart   int64
	epochSlots   int64
	epochCont    float64 // contention at epoch start
	epochPMin    float64
	epochActive  int
	epochInact   int
	epochJoiners int
	txScratch    []int
	stats        Stats
	pendingPeak  int

	// errSilent and errOverfull are Definition 2's contention thresholds
	// κ^(1/4) and κ^(3/4).
	errSilent, errOverfull float64
	// probs[k] holds prob(eCap-1-k) and Log1p of its negation, filled on
	// first use and emptied by Reset.  It is bounded by probTableLen.
	probs []probLog
}

// probLog is a joining probability p < 1 or at the cap, with
// lq = Log1p(-p), the sampler's logarithm.
type probLog struct{ p, lq float64 }

// probTableLen bounds the probability table: exponents from eCap-1
// down to eCap-probTableLen are read from it, lower ones from the
// formula.  A drain of the committed benchmark grid reaches about 931
// exponents below the cap.
const probTableLen = 2048

var _ protocol.Protocol = (*DecodableBackoff)(nil)
var _ protocol.Partitioned = (*DecodableBackoff)(nil)
var _ protocol.Coaster = (*DecodableBackoff)(nil)

// New returns a Decodable Backoff instance for decoding threshold kappa
// (the paper requires κ ≥ 6) using the given random stream.
func New(kappa int, r *rng.Rand, opts ...Option) *DecodableBackoff {
	d := new(DecodableBackoff)
	d.Reset(kappa, r, opts...)
	return d
}

// Reset leaves d exactly as New(kappa, r, opts...) builds one, options
// included, but keeps its storage: the packet-location pages, the
// bucket structs and the inactive, joiner and scratch buffers.  New is
// Reset on a zero DecodableBackoff.
func (d *DecodableBackoff) Reset(kappa int, r *rng.Rand, opts ...Option) {
	if kappa < 6 {
		panic("core: kappa must be at least 6 (required by the analysis)")
	}
	if r == nil {
		panic("core: nil rng")
	}
	for _, b := range d.buckets {
		d.recycleBucket(b)
	}
	clear(d.buckets)
	d.loc.Reset()
	*d = DecodableBackoff{
		kappa:     kappa,
		factor:    math.Pow(float64(kappa), 0.25),
		p0:        1 / math.Sqrt(float64(kappa)),
		admission: true,
		rand:      r,

		buckets:     d.buckets[:0],
		freeBuckets: d.freeBuckets,
		overScratch: d.overScratch[:0],
		inactive:    d.inactive[:0],
		joiners:     d.joiners[:0],
		loc:         d.loc,
		txScratch:   d.txScratch[:0],
		errSilent:   math.Pow(float64(kappa), 0.25),
		errOverfull: math.Pow(float64(kappa), 0.75),
		probs:       d.probs[:0],
	}
	for _, opt := range opts {
		opt(d)
	}
	// Smallest integer e >= 0 with p0 · f^e >= 1.
	d.eCap = int(math.Ceil(-math.Log(d.p0) / math.Log(d.factor)))
	if d.eCap < 0 {
		d.eCap = 0
	}
}

// Name implements protocol.Protocol.
func (d *DecodableBackoff) Name() string { return "decodable-backoff" }

// Kappa returns the decoding threshold the instance was built for.
func (d *DecodableBackoff) Kappa() int { return d.kappa }

// Stats returns a copy of the accumulated counters.
func (d *DecodableBackoff) Stats() Stats {
	s := d.stats
	s.MaxPending = d.pendingPeak
	return s
}

// Pending implements protocol.Protocol.
func (d *DecodableBackoff) Pending() int {
	return d.active + len(d.joiners) + len(d.inactive)
}

// prob returns the joining probability for effective exponent e.
func (d *DecodableBackoff) prob(e int) float64 {
	p, _ := d.probLog(e)
	return p
}

// probLog returns prob(e) and Log1p(-prob(e)).  Below the cap both come
// from the table (within probTableLen of the cap) or from rawProb.
func (d *DecodableBackoff) probLog(e int) (p, lq float64) {
	k := d.eCap - 1 - e
	switch {
	case k < 0:
		return 1, math.Inf(-1)
	case k < len(d.probs):
		pl := d.probs[k]
		return pl.p, pl.lq
	case k < probTableLen:
		d.fillProbs(k)
		pl := d.probs[k]
		return pl.p, pl.lq
	}
	p = d.rawProb(e)
	return p, math.Log1p(-p)
}

// fillProbs extends the probability table through index k.
func (d *DecodableBackoff) fillProbs(k int) {
	for i := len(d.probs); i <= k; i++ {
		p := d.rawProb(d.eCap - 1 - i)
		d.probs = append(d.probs, probLog{p, math.Log1p(-p)})
	}
}

// rawProb evaluates the joining probability at effective exponent e.
func (d *DecodableBackoff) rawProb(e int) float64 {
	if e >= d.eCap {
		return 1
	}
	p := d.p0 * math.Pow(d.factor, float64(e))
	if p > 1 {
		return 1
	}
	return p
}

// Inject implements protocol.Protocol.  Arrivals enter the inactive
// stage (or activate immediately if admission control is disabled).
func (d *DecodableBackoff) Inject(now int64, ids []channel.PacketID) {
	if d.admission {
		d.inactive = slices.Grow(d.inactive, len(ids))
	}
	for _, id := range ids {
		if d.loc.Has(int64(id)) {
			panic(fmt.Sprintf("core: duplicate injection of packet %d", id))
		}
		if d.admission {
			d.loc.Put(int64(id), location{where: inInactive, idx: index32(len(d.inactive))})
			d.inactive = append(d.inactive, id)
		} else {
			d.addActive(id)
			d.stats.Activations++
		}
		d.shardPending[int(id)%protocol.NumShards]++
	}
	if p := d.Pending(); p > d.pendingPeak {
		d.pendingPeak = p
	}
}

// addActive inserts a packet into the activation bucket (exponent 0, i.e.
// probability p0).
func (d *DecodableBackoff) addActive(id channel.PacketID) {
	d.addToBucket(d.getBucket(0-d.shift), id)
}

// addToBucket appends an active packet to bucket b.
func (d *DecodableBackoff) addToBucket(b *bucket, id channel.PacketID) {
	d.loc.Put(int64(id), location{where: inBucket, base: int32(b.base), idx: index32(len(b.ids))})
	b.ids = append(b.ids, id)
	d.active++
}

// index32 narrows a slice index for a location, panicking at the int32
// limit instead of wrapping.
func index32(i int) int32 {
	if i > math.MaxInt32 {
		panic(fmt.Sprintf("core: slice index %d exceeds the int32 limit of packet locations", i))
	}
	return int32(i)
}

// moveShift moves the global exponent shift by delta.  Every bucket base
// is -shift or eCap-shift (eCap >= 0) at the shift of its creation, and
// a location stores it as int32, so the shift may take neither out of
// range.
func (d *DecodableBackoff) moveShift(delta int) {
	s := d.shift + delta
	if -s < math.MinInt32 || d.eCap-s > math.MaxInt32 {
		panic(fmt.Sprintf("core: probability shift %d takes bucket bases past the int32 limit of packet locations", s))
	}
	d.shift = s
}

// bucketAt returns the index of the bucket with the given base in the
// sorted bucket list, or the insertion point with found=false.  The
// list stays tiny (one bucket per live exponent, a few dozen at most),
// so binary search beats any map.
func (d *DecodableBackoff) bucketAt(base int) (int, bool) {
	i := sort.Search(len(d.buckets), func(i int) bool { return d.buckets[i].base >= base })
	return i, i < len(d.buckets) && d.buckets[i].base == base
}

// getBucket returns the bucket with the given base, creating it (in
// sorted position, recycling retired bucket structs) if needed.
func (d *DecodableBackoff) getBucket(base int) *bucket {
	i, found := d.bucketAt(base)
	if found {
		return d.buckets[i]
	}
	var b *bucket
	if n := len(d.freeBuckets); n > 0 {
		b = d.freeBuckets[n-1]
		d.freeBuckets[n-1] = nil
		d.freeBuckets = d.freeBuckets[:n-1]
		b.base = base
	} else {
		b = &bucket{base: base}
	}
	d.buckets = append(d.buckets, nil)
	copy(d.buckets[i+1:], d.buckets[i:])
	d.buckets[i] = b
	return b
}

// findBucket returns the bucket with the given base; it must exist.
func (d *DecodableBackoff) findBucket(base int) *bucket {
	i, found := d.bucketAt(base)
	if !found {
		panic(fmt.Sprintf("core: no bucket with base %d", base))
	}
	return d.buckets[i]
}

// recycleBucket stashes an empty bucket struct for reuse.
func (d *DecodableBackoff) recycleBucket(b *bucket) {
	b.ids = b.ids[:0]
	d.freeBuckets = append(d.freeBuckets, b)
}

// dropBucketIfEmpty removes an empty bucket from the index.
func (d *DecodableBackoff) dropBucketIfEmpty(b *bucket) {
	if len(b.ids) != 0 {
		return
	}
	for i, bb := range d.buckets {
		if bb == b {
			copy(d.buckets[i:], d.buckets[i+1:])
			d.buckets[len(d.buckets)-1] = nil
			d.buckets = d.buckets[:len(d.buckets)-1]
			d.recycleBucket(b)
			return
		}
	}
}

// contention returns the sum of joining probabilities over all active
// packets (buckets plus current joiners), and the minimum probability
// (1 if there are no active packets).
func (d *DecodableBackoff) contention() (c, pMin float64) {
	pMin = 1
	for _, b := range d.buckets {
		if len(b.ids) == 0 {
			continue
		}
		p := d.prob(b.base + d.shift)
		c += float64(len(b.ids)) * p
		if p < pMin {
			pMin = p
		}
	}
	for _, j := range d.joiners {
		p := d.prob(j.base + d.shift)
		c += p
		if p < pMin {
			pMin = p
		}
	}
	return c, pMin
}

// Snapshot returns the live potential-function inputs: total packets N,
// inactive packets M, contention c, and minimum active probability.
func (d *DecodableBackoff) Snapshot() (n, m int, c, pMin float64) {
	c, pMin = d.contention()
	return d.Pending(), len(d.inactive), c, pMin
}

// startEpoch selects this epoch's joiners: each active packet joins
// independently with its bucket's probability.  Joiners are moved out of
// their buckets into the joiner list.
func (d *DecodableBackoff) startEpoch(now int64) {
	d.inEpoch = true
	d.epochStart = now
	d.epochSlots = 0
	d.epochCont, d.epochPMin = 0, 1
	d.epochActive = d.active
	d.epochInact = len(d.inactive)
	d.joiners = d.joiners[:0]

	for _, b := range d.buckets {
		if len(b.ids) == 0 {
			continue
		}
		p, lq := d.probLog(b.base + d.shift)
		d.epochCont += float64(len(b.ids)) * p
		if p < d.epochPMin {
			d.epochPMin = p
		}
		d.txScratch = d.rand.SampleIndicesLog(d.txScratch[:0], len(b.ids), p, lq)
		// Remove selected ids by descending index so swap-deletes do not
		// disturb indices still to be processed.
		for k := len(d.txScratch) - 1; k >= 0; k-- {
			idx := d.txScratch[k]
			id := b.ids[idx]
			d.removeFromBucket(b, idx)
			d.loc.Put(int64(id), location{where: inJoiners, idx: index32(len(d.joiners))})
			d.joiners = append(d.joiners, joiner{id: id, base: b.base})
		}
	}
	// Bucket list may now contain empty buckets; drop them lazily.
	d.compactBuckets()
	d.epochJoiners = len(d.joiners)
}

func (d *DecodableBackoff) compactBuckets() {
	out := d.buckets[:0]
	for _, b := range d.buckets {
		if len(b.ids) == 0 {
			d.recycleBucket(b)
			continue
		}
		out = append(out, b)
	}
	for i := len(out); i < len(d.buckets); i++ {
		d.buckets[i] = nil
	}
	d.buckets = out
}

// removeFromBucket swap-deletes index idx from bucket b, fixing the moved
// packet's location.
func (d *DecodableBackoff) removeFromBucket(b *bucket, idx int) {
	last := len(b.ids) - 1
	moved := b.ids[last]
	b.ids[idx] = moved
	b.ids = b.ids[:last]
	if idx != last {
		d.loc.Put(int64(moved), location{where: inBucket, base: int32(b.base), idx: int32(idx)})
	}
	d.active--
}

// Transmitters implements protocol.Protocol: the epoch's joiners
// broadcast in every slot of the epoch.
func (d *DecodableBackoff) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	d.PrepareSlot(now)
	for _, j := range d.joiners {
		buf = append(buf, j.id)
	}
	return buf
}

// Shards implements protocol.Partitioned.  The Partitioned methods are
// called by no engine path; they serve only the benchmark's traced
// replay of the retired staged cycle, and go when a later change to the
// benchmark retires that replay.
func (d *DecodableBackoff) Shards() int { return protocol.NumShards }

// PrepareSlot implements protocol.Partitioned: the slot's only
// centralized decision is starting a new epoch (which consumes the RNG
// for joiner selection), so everything RNG-dependent happens here and
// the shard stages are pure reads.  Transmitters runs it too.
func (d *DecodableBackoff) PrepareSlot(now int64) {
	if !d.inEpoch {
		d.startEpoch(now)
	}
}

// ShardTransmitters implements protocol.Partitioned: shard `shard`
// emits its contiguous chunk of the epoch's joiner list, so the
// shard-order concatenation reproduces Transmitters exactly.
func (d *DecodableBackoff) ShardTransmitters(now int64, shard int, buf []channel.PacketID) []channel.PacketID {
	lo, hi := protocol.ShardRange(len(d.joiners), shard, protocol.NumShards)
	for _, j := range d.joiners[lo:hi] {
		buf = append(buf, j.id)
	}
	return buf
}

// ShardObserve implements protocol.Partitioned.  Epoch bookkeeping is
// inherently centralized (one shared epoch state machine), so the
// per-shard stage has nothing to do and ReduceSlot does all the work.
func (d *DecodableBackoff) ShardObserve(shard int, fb channel.Feedback) {}

// ReduceSlot implements protocol.Partitioned.
func (d *DecodableBackoff) ReduceSlot(fb channel.Feedback) { d.Observe(fb) }

// ShardPending implements protocol.Partitioned.
func (d *DecodableBackoff) ShardPending(shard int) int { return d.shardPending[shard] }

// CoastUntil implements protocol.Coaster.  Joiners broadcast in every
// slot of an epoch and arrivals never join one mid-flight, so while the
// epoch's slots are heard busy without a decoding event (neither ends
// it) the transmitter set is frozen until the κ-slot timeout ends the
// epoch at epochStart+κ-1.  Outside an epoch there is nothing to coast.
func (d *DecodableBackoff) CoastUntil(now int64) int64 {
	if !d.inEpoch {
		return now
	}
	return d.epochStart + int64(d.kappa) - 1
}

// Observe implements protocol.Protocol: epoch bookkeeping driven purely
// by the two signals devices can hear (silence, decoding events) plus the
// κ-slot timeout.
func (d *DecodableBackoff) Observe(fb channel.Feedback) {
	if !d.inEpoch {
		// No epoch in progress (e.g. the engine skipped ahead through an
		// idle stretch); nothing to account.
		if d.Pending() == 0 {
			d.stats.IdleSlots++
		}
		return
	}
	d.epochSlots++
	switch {
	case fb.Event != nil:
		d.endSuccessful(fb)
	case fb.Silent:
		d.endSilent()
	case d.epochSlots >= int64(d.kappa):
		d.endOverfull()
	}
}

// endSuccessful finishes a successful epoch: delivered packets leave the
// system; all other probabilities are unchanged.
func (d *DecodableBackoff) endSuccessful(fb channel.Feedback) {
	for _, id := range fb.Event.Packets {
		l, ok := d.loc.Get(int64(id))
		if !ok {
			continue // not ours (possible only in multi-protocol setups)
		}
		switch l.where {
		case inJoiners:
			d.removeJoiner(int(l.idx))
		case inBucket:
			// A straggler delivered from an earlier window; possible only
			// with exotic channel configurations, but handle it.
			b := d.findBucket(int(l.base))
			d.removeFromBucket(b, int(l.idx))
			d.dropBucketIfEmpty(b)
		case inInactive:
			d.removeInactive(int(l.idx))
		}
		d.loc.Delete(int64(id))
		d.shardPending[int(id)%protocol.NumShards]--
		d.stats.Delivered++
	}
	// Joiners that were not delivered (none, in well-formed runs) return
	// to their buckets with unchanged probability.
	d.returnJoiners(0)
	d.stats.SuccessfulEpochs++
	d.finishEpoch(protocol.EpochSuccessful, false)
}

// endSilent finishes a silent epoch: every active packet's probability
// rises by one factor step (shift increase), then inactive packets
// activate at p0.
func (d *DecodableBackoff) endSilent() {
	if d.epochActive == 0 && d.epochInact == 0 {
		// Nothing in the system: an idle slot, not a real epoch.
		d.stats.IdleSlots++
		d.inEpoch = false
		return
	}
	isError := d.epochCont >= d.errSilent
	d.moveShift(1)
	d.mergeCapped()
	if len(d.inactive) > 0 {
		b := d.getBucket(0 - d.shift)
		b.ids = slices.Grow(b.ids, len(d.inactive))
		for _, id := range d.inactive {
			d.addToBucket(b, id) // overwrites the inactive location
		}
		d.stats.Activations += int64(len(d.inactive))
	}
	d.inactive = d.inactive[:0]
	d.stats.SilentEpochs++
	d.finishEpoch(protocol.EpochSilent, isError)
}

// endOverfull finishes an overfull epoch: every active packet's
// probability drops by one factor step.
func (d *DecodableBackoff) endOverfull() {
	isError := d.epochCont <= d.errOverfull
	d.moveShift(-1)
	d.returnJoiners(0)
	d.stats.OverfullEpochs++
	d.finishEpoch(protocol.EpochOverfull, isError)
}

// mergeCapped folds every bucket whose effective exponent now exceeds the
// cap into the cap bucket (probability 1).  Called after shift increases.
func (d *DecodableBackoff) mergeCapped() {
	capBase := d.eCap - d.shift
	over := d.overScratch[:0]
	for _, b := range d.buckets {
		if b.base > capBase && len(b.ids) > 0 {
			over = append(over, b)
		}
	}
	d.overScratch = over
	if len(over) == 0 {
		return
	}
	dst := d.getBucket(capBase)
	for _, b := range over {
		for _, id := range b.ids {
			d.loc.Put(int64(id), location{where: inBucket, base: int32(dst.base), idx: index32(len(dst.ids))})
			dst.ids = append(dst.ids, id)
		}
		b.ids = b.ids[:0]
	}
	for i := range over {
		over[i] = nil
	}
	d.compactBuckets()
}

// returnJoiners reinserts joiners[from:] into their buckets.
func (d *DecodableBackoff) returnJoiners(from int) {
	for _, j := range d.joiners[from:] {
		d.addToBucket(d.getBucket(j.base), j.id)
	}
	d.joiners = d.joiners[:from]
}

// removeJoiner swap-deletes the joiner at idx.
func (d *DecodableBackoff) removeJoiner(idx int) {
	last := len(d.joiners) - 1
	moved := d.joiners[last]
	d.joiners[idx] = moved
	d.joiners = d.joiners[:last]
	if idx != last {
		d.loc.Put(int64(moved.id), location{where: inJoiners, idx: int32(idx)})
	}
}

// removeInactive swap-deletes the inactive packet at idx.
func (d *DecodableBackoff) removeInactive(idx int) {
	last := len(d.inactive) - 1
	moved := d.inactive[last]
	d.inactive[idx] = moved
	d.inactive = d.inactive[:last]
	if idx != last {
		d.loc.Put(int64(moved), location{where: inInactive, idx: int32(idx)})
	}
}

// finishEpoch reports the completed epoch to the observer and resets the
// epoch state.
func (d *DecodableBackoff) finishEpoch(kind protocol.EpochKind, isError bool) {
	if isError {
		d.stats.ErrorEpochs++
	}
	if d.observer != nil {
		d.observer.ObserveEpoch(protocol.EpochInfo{
			Kind:       kind,
			Start:      d.epochStart,
			Length:     d.epochSlots,
			Joiners:    d.epochJoiners,
			Contention: d.epochCont,
			PMin:       d.epochPMin,
			Active:     d.epochActive,
			Inactive:   d.epochInact,
			Error:      isError,
		})
	}
	d.inEpoch = false
}
