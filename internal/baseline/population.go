// Package baseline implements the contention-resolution protocols the
// paper compares against analytically: binary exponential backoff
// (Metcalfe & Boggs), slotted ALOHA (Abramson/Roberts), and a
// Chang–Jin–Pettie-style multiplicative-weights protocol (SOSA 2019).
// All of them run on the same Coded Radio Network Model channel as the
// Decodable Backoff Algorithm; with κ = 1 the channel degenerates to the
// classical radio model these protocols were designed for.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/arena"
	"repro/internal/channel"
	"repro/internal/rng"
)

// population stores packets whose transmission probabilities share the
// form clamp(p0·f^e) for integer exponents e, bucketed by exponent with a
// global lazy shift.  A uniform multiplicative update is O(1) bucket
// bookkeeping instead of O(n), and per-slot transmitter sampling is
// O(expected transmitters + #buckets) via geometric skipping.
//
// Probabilities saturate at pMax above and pFloor below.  Saturated
// buckets are relabeled (an O(1) pointer operation), not rebuilt, when
// the shift moves — and when a relabel collides with an existing bucket
// the smaller side is folded into the larger (union by size), so a
// protocol that shifts every slot (multiplicative weights under
// overload) costs amortized O(log n) moves per packet instead of O(n)
// per slot.
//
// Every live bucket's effective exponent (base + shift) stays within
// [eFloor, eCap]: arrivals enter at exponent 0, and each ±1 shift folds
// the one bucket it pushes past a bound back onto it.  So the bucket a
// shift saturates is always at the end of the sorted list, and the
// probability of any bucket is read from tables built once over that
// range.
type population struct {
	p0     float64
	factor float64
	eCap   int // exponent where the probability saturates at pMax
	eFloor int // exponent where the probability saturates at pFloor
	pMax   float64

	// probs[e-eFloor] is prob(e) and logq[e-eFloor] is Log1p(-prob(e))
	// for e in [eFloor, eCap]: the per-slot sampler's only transcendental
	// inputs, evaluated once instead of per bucket per slot.
	probs, logq []float64

	shift    int
	buckets  []*popBucket // live buckets, sorted by base
	byHandle []*popBucket // every bucket ever made, indexed by its handle
	free     []*popBucket // emptied buckets awaiting reuse
	loc      arena.Index[popLoc]
	size     int
	scratch  []int
}

// pFloor bounds probabilities from below: values this small are
// behaviourally indistinguishable (a packet at 1e-9 transmits roughly
// never), and the floor keeps the bucket count bounded by the exponent
// range.
const pFloor = 1e-9

type popBucket struct {
	base   int
	handle int32 // index in population.byHandle, kept across reuse
	ids    []channel.PacketID
}

// popLoc is where a packet lives: its bucket's handle and its index in
// the bucket's member list.  It is pointer-free so it can sit in an
// arena.Index, and the handle survives relabels and reuse of the bucket.
type popLoc struct {
	b   int32
	idx int32
}

// reset empties p and sets its activation probability p0, update
// factor f > 1, and probability ceiling pMax.  A zero population is
// ready after it; a used one keeps its storage: emptied buckets (member
// lists included) wait for reuse on the free list, and the location
// pages and probability tables are refilled in place.
func (p *population) reset(p0, factor, pMax float64) {
	if p0 <= 0 || p0 > 1 {
		panic("baseline: p0 must be in (0,1]")
	}
	if factor <= 1 {
		panic("baseline: factor must exceed 1")
	}
	if pMax <= 0 || pMax > 1 {
		panic("baseline: pMax must be in (0,1]")
	}
	for _, b := range p.buckets {
		b.ids = b.ids[:0]
		p.free = append(p.free, b)
	}
	clear(p.buckets)
	p.buckets = p.buckets[:0]
	p.loc.Reset()
	p.shift, p.size = 0, 0
	p.p0, p.factor, p.pMax = p0, factor, pMax
	p.eCap = int(math.Ceil(math.Log(pMax/p0) / math.Log(factor)))
	if p.eCap < 0 {
		p.eCap = 0
	}
	p.eFloor = -int(math.Ceil(math.Log(p0/pFloor)/math.Log(factor))) - 1
	if p.eFloor > 0 {
		p.eFloor = 0
	}
	p.probs, p.logq = p.probs[:0], p.logq[:0]
	for e := p.eFloor; e <= p.eCap; e++ {
		v := p.rawProb(e)
		p.probs = append(p.probs, v)
		p.logq = append(p.logq, math.Log1p(-v))
	}
}

// rawProb evaluates the probability at effective exponent e.
func (p *population) rawProb(e int) float64 {
	if e >= p.eCap {
		return p.pMax
	}
	if e <= p.eFloor {
		return pFloor
	}
	v := p.p0 * math.Pow(p.factor, float64(e))
	if v > p.pMax {
		return p.pMax
	}
	if v < pFloor {
		return pFloor
	}
	return v
}

// slot returns the table index of effective exponent e, clamped to the
// saturation range.
func (p *population) slot(e int) int {
	return min(max(e, p.eFloor), p.eCap) - p.eFloor
}

// prob returns the probability at effective exponent e.
func (p *population) prob(e int) float64 { return p.probs[p.slot(e)] }

// Len returns the number of packets in the population.
func (p *population) Len() int { return p.size }

// Add inserts a packet at exponent 0 (probability p0).  It panics on a
// duplicate ID.
func (p *population) Add(id channel.PacketID) {
	if p.loc.Has(int64(id)) {
		panic(fmt.Sprintf("baseline: duplicate packet %d", id))
	}
	b := p.getBucket(0 - p.shift)
	p.loc.Put(int64(id), popLoc{b: b.handle, idx: int32(len(b.ids))})
	b.ids = append(b.ids, id)
	p.size++
}

// Remove deletes a packet if present, reporting whether it was.
func (p *population) Remove(id channel.PacketID) bool {
	l, ok := p.loc.Delete(int64(id))
	if !ok {
		return false
	}
	b := p.byHandle[l.b]
	last := len(b.ids) - 1
	moved := b.ids[last]
	b.ids[l.idx] = moved
	b.ids = b.ids[:last]
	if int(l.idx) != last {
		p.loc.Put(int64(moved), l)
	}
	p.size--
	if len(b.ids) == 0 {
		p.dropBucket(b)
	}
	return true
}

// Shift applies one multiplicative update step to every packet:
// delta = +1 multiplies every probability by the factor (saturating at
// pMax), delta = -1 divides (saturating at pFloor).
func (p *population) Shift(delta int) {
	if delta != 1 && delta != -1 {
		panic("baseline: Shift delta must be ±1")
	}
	p.shift += delta
	if delta == 1 {
		p.saturate(p.eCap-p.shift, 1)
	} else {
		p.saturate(p.eFloor-p.shift, -1)
	}
}

// saturate folds the bucket past the saturation boundary back onto it.
// dir = +1 handles the cap (bases above boundary), dir = -1 the floor
// (bases below).  After a single ±1 shift at most one bucket sits past
// the boundary (the previously saturated one, now one step beyond) and it
// is the last (cap) or first (floor) in base order, so this relabels one
// bucket in O(1), or merges by size on collision.
func (p *population) saturate(boundary, dir int) {
	if len(p.buckets) == 0 {
		return
	}
	past, next := p.buckets[0], 1
	if dir > 0 {
		past, next = p.buckets[len(p.buckets)-1], len(p.buckets)-2
	}
	if (dir > 0 && past.base <= boundary) || (dir < 0 && past.base >= boundary) {
		return
	}
	if next >= 0 && next < len(p.buckets) && p.buckets[next].base == boundary {
		p.mergeInto(past, p.buckets[next])
	} else {
		p.relabel(past, boundary)
	}
}

// relabel changes a bucket's base without touching its members, then
// moves it to its sorted position by swapping past its neighbours.
func (p *population) relabel(b *popBucket, newBase int) {
	i := p.position(b)
	b.base = newBase
	for i > 0 && p.buckets[i-1].base > newBase {
		p.buckets[i], p.buckets[i-1] = p.buckets[i-1], b
		i--
	}
	for i+1 < len(p.buckets) && p.buckets[i+1].base < newBase {
		p.buckets[i], p.buckets[i+1] = p.buckets[i+1], b
		i++
	}
}

// mergeInto merges the smaller of a, b into the larger and leaves the
// result at b's base (union by size keeps amortized move cost O(log n)
// per packet).
func (p *population) mergeInto(a, b *popBucket) {
	if len(a.ids) > len(b.ids) {
		// Move b's members into a, then relabel a to b's base.
		base := b.base
		p.moveAll(b, a)
		p.relabel(a, base)
		return
	}
	p.moveAll(a, b)
}

// moveAll empties src into dst and drops src.
func (p *population) moveAll(src, dst *popBucket) {
	for _, id := range src.ids {
		p.loc.Put(int64(id), popLoc{b: dst.handle, idx: int32(len(dst.ids))})
		dst.ids = append(dst.ids, id)
	}
	src.ids = src.ids[:0]
	p.dropBucket(src)
}

// Sample appends, to dst, each packet independently with its current
// probability, and returns the extended slice.  It draws exactly what a
// SampleIndicesLog call per bucket draws, but settles a bucket's first
// uniform here: most buckets send nothing in a slot, and SkipsPast
// proves it for most of those without a call or a logarithm.
func (p *population) Sample(r *rng.Rand, dst []channel.PacketID) []channel.PacketID {
	for _, b := range p.buckets {
		n := len(b.ids)
		if n == 0 {
			continue
		}
		s := p.slot(b.base + p.shift)
		q := p.probs[s]
		if q >= 1 {
			dst = append(dst, b.ids...)
			continue
		}
		u := r.OpenFloat64()
		if rng.SkipsPast(u, n, q) {
			continue
		}
		p.scratch = r.SampleIndicesFrom(p.scratch[:0], n, q, p.logq[s], u)
		for _, idx := range p.scratch {
			dst = append(dst, b.ids[idx])
		}
	}
	return dst
}

// Contention returns the sum of probabilities and the minimum probability
// (1 if empty).
func (p *population) Contention() (c, pMin float64) {
	pMin = 1
	for _, b := range p.buckets {
		if len(b.ids) == 0 {
			continue
		}
		prob := p.prob(b.base + p.shift)
		c += float64(len(b.ids)) * prob
		if prob < pMin {
			pMin = prob
		}
	}
	return c, pMin
}

// position returns the index of a live bucket in the sorted list.
func (p *population) position(b *popBucket) int {
	i := sort.Search(len(p.buckets), func(i int) bool { return p.buckets[i].base >= b.base })
	if i == len(p.buckets) || p.buckets[i] != b {
		panic(fmt.Sprintf("baseline: bucket with base %d not live", b.base))
	}
	return i
}

// getBucket returns the bucket with the given base, creating it (in
// sorted position, recycling emptied buckets) if needed.
func (p *population) getBucket(base int) *popBucket {
	i := sort.Search(len(p.buckets), func(i int) bool { return p.buckets[i].base >= base })
	if i < len(p.buckets) && p.buckets[i].base == base {
		return p.buckets[i]
	}
	var b *popBucket
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		b.base = base
	} else {
		b = &popBucket{base: base, handle: int32(len(p.byHandle))}
		p.byHandle = append(p.byHandle, b)
	}
	p.buckets = append(p.buckets, nil)
	copy(p.buckets[i+1:], p.buckets[i:])
	p.buckets[i] = b
	return b
}

// dropBucket unlinks an emptied bucket and keeps it for reuse.
func (p *population) dropBucket(b *popBucket) {
	i := p.position(b)
	copy(p.buckets[i:], p.buckets[i+1:])
	p.buckets[len(p.buckets)-1] = nil
	p.buckets = p.buckets[:len(p.buckets)-1]
	p.free = append(p.free, b)
}
