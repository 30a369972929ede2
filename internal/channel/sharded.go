package channel

import "fmt"

// FanOut schedules n independent tasks f(0)..f(n-1) and returns when
// all have finished.  The staged simulation engine passes its worker
// pool here; a nil FanOut means "run inline, in order".  The tasks it
// receives are data-disjoint, so any schedule (including fully serial)
// produces the same result.
type FanOut func(n int, f func(int))

func inlineFan(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// dupShards is the number of ID shards the parallel duplicate check
// partitions into.  A power of two so the shard of an ID is a mask.
const dupShards = 16

// ShardedDup validates that a transmitter list delivered as ordered
// chunks names pairwise-distinct packets, with the O(transmitters)
// work split into data-parallel partials.  It is the pre-reduce half
// of the coded channel's Step: on large bad slots the scan over every
// transmitter is the only O(n) cost, and it has no sequential
// dependency, so it fans out while the (tiny) event check stays
// serial.
//
// Two stages, each an independent task set for the FanOut:
//
//  1. partition — one task per chunk buckets that chunk's IDs by
//     ID shard (id mod dupShards), preserving chunk order;
//  2. validate — one task per shard concatenates its buckets in chunk
//     order and checks that subsequence for duplicates, reusing a
//     per-shard previous-slot cache and sort scratch.
//
// Equal IDs always land in the same shard, so per-shard validation is
// exhaustive.  Findings are recorded, never raised, inside tasks; the
// serial merge scans shards in index order, so which duplicate a
// protocol bug panics on is identical at every worker count.  The
// zero value is ready to use.
type ShardedDup struct {
	parts   [][]PacketID          // chunk-major partition buffers: parts[chunk*dupShards+shard]
	subs    [dupShards][]PacketID // per-shard concatenated subsequence
	prev    [dupShards][]PacketID // per-shard last validated subsequence
	scratch [dupShards][]PacketID // per-shard sort scratch
	dupID   [dupShards]PacketID
	dupOK   [dupShards]bool

	// Stage state and bound stage funcs, so Check hands fan the same two
	// closures every slot instead of allocating fresh ones.
	chunks      [][]PacketID
	nc          int
	slab        []PacketID // one backing array carved into the partition buckets
	bcap        int        // per-bucket capacity within the slab
	partitionFn func(int)
	validateFn  func(int)
}

// Check panics (with the given prefix, matching the serial checkers'
// message) if the concatenation of chunks contains a duplicate packet
// ID.  fan schedules the partial scans; nil runs them inline.
func (d *ShardedDup) Check(prefix string, chunks [][]PacketID, fan FanOut) {
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	if total < 2 {
		return
	}
	if fan == nil {
		fan = inlineFan
	}
	if d.partitionFn == nil {
		d.partitionFn = d.partition
		d.validateFn = d.validate
	}
	d.chunks, d.nc = chunks, len(chunks)
	for len(d.parts) < d.nc*dupShards {
		d.parts = append(d.parts, nil)
	}
	// Size the shared slab the partition buckets are carved from: one
	// bucket capacity covering the largest chunk spread ~evenly over the
	// shards.  Growing the slab is one allocation, not a per-bucket
	// doubling ladder; skewed chunks still grow individual buckets
	// organically past the carve.
	maxLen := 0
	for _, ch := range chunks {
		if len(ch) > maxLen {
			maxLen = len(ch)
		}
	}
	d.bcap = maxLen/dupShards + 4
	if need := d.nc * dupShards * d.bcap; cap(d.slab) < need {
		d.slab = make([]PacketID, need)
	}
	fan(d.nc, d.partitionFn)
	fan(dupShards, d.validateFn)
	d.chunks = nil
	for s := 0; s < dupShards; s++ {
		if d.dupOK[s] {
			panic(fmt.Sprintf("%s: packet %d transmitted twice in one slot", prefix, d.dupID[s]))
		}
	}
}

// partition is stage 1, one task per chunk: bucket chunk i's IDs by ID
// shard, preserving chunk order.
func (d *ShardedDup) partition(i int) {
	base := i * dupShards
	// Carve this chunk's buckets from the shared slab: disjoint regions,
	// so concurrent partition tasks never touch the same memory.  The
	// three-index slice pins each bucket's capacity to its region; an
	// append past it copies the bucket out of the slab (skewed chunks)
	// rather than clobbering a neighbour.
	off := base * d.bcap
	for s := 0; s < dupShards; s++ {
		lo := off + s*d.bcap
		d.parts[base+s] = d.slab[lo : lo : lo+d.bcap]
	}
	for _, id := range d.chunks[i] {
		s := base + int(uint64(id)&(dupShards-1))
		d.parts[s] = append(d.parts[s], id)
	}
}

// validate is stage 2, one task per ID shard: concatenate shard s's
// buckets in chunk order and scan the subsequence for duplicates.
func (d *ShardedDup) validate(s int) {
	d.dupOK[s] = false
	n := 0
	for i := 0; i < d.nc; i++ {
		n += len(d.parts[i*dupShards+s])
	}
	sub := d.subs[s]
	if cap(sub) < n {
		sub = make([]PacketID, 0, n)
	}
	sub = sub[:0]
	for i := 0; i < d.nc; i++ {
		sub = append(sub, d.parts[i*dupShards+s]...)
	}
	d.subs[s] = sub
	if len(sub) < 2 || sameIDs(sub, d.prev[s]) {
		return
	}
	if id, found := FindDup(sub, &d.scratch[s]); found {
		d.dupID[s], d.dupOK[s] = id, true
		return
	}
	d.prev[s] = append(d.prev[s][:0], sub...)
}

// Reset drops the previous-slot caches (storage is kept).
func (d *ShardedDup) Reset() {
	for s := range d.prev {
		d.prev[s] = d.prev[s][:0]
		d.dupOK[s] = false
	}
}
