// Package arena provides a dense, page-recycling replacement for the
// map[int64]V bookkeeping on the engine's hot path.
//
// The engine assigns packet IDs sequentially, delivers them in bursts,
// and frees their state on delivery (PR 4's backlog-bounded memory
// contract).  That access pattern — dense monotone keys, a live span
// that slides forward — is pathological for Go's hash maps (every
// lookup re-hashes, every delete tombstones) but ideal for a paged
// array: a key indexes directly into a fixed-size page, occupancy is
// one bit, and pages whose entries have all been deleted return to a
// free list so memory tracks the live key span, never total arrivals.
//
// The direct-indexed page table covers a window of at most
// maxSpanPages pages around the live keys; keys landing outside a
// window that cannot be re-anchored (possible only for key sets
// spanning more than ~2²⁵ values — fuzzers and adversarial tests, not
// the engine's sequential IDs) fall back to a page-granular overflow
// map, keeping every operation correct at hash-lookup speed while the
// dense window keeps the hot path at array speed.
//
// Index is not safe for concurrent use, matching the structures it
// replaces.
package arena

import (
	"math/bits"
	"sort"
)

const (
	pageBits = 9
	// PageSize is the number of key slots per page.  512 entries keeps a
	// page of small values within a few KiB — large enough to amortize
	// the indirection, small enough that a sparse key set does not
	// strand much memory per touched page.
	PageSize = 1 << pageBits
	pageMask = PageSize - 1

	// maxSpanPages bounds the direct-indexed page table: 2¹⁶ pages is a
	// 512 KiB table covering a 2²⁵-key dense span — far beyond any
	// in-flight backlog the engine produces, small enough that the
	// table itself can never become the memory story.
	maxSpanPages = 1 << 16
)

// page holds one aligned block of PageSize key slots: an occupancy
// bitmap, the values, and a live count so a fully-vacated page can be
// recycled in O(1).
type page[V any] struct {
	occ  [PageSize / 64]uint64
	live int
	vals [PageSize]V
}

// Index maps int64 keys to values of type V.  The zero value is an
// empty index ready for use.  Lookups and updates are O(1); memory is
// proportional to the number of pages holding live keys.
//
// Values should be pointer-free (the structures this package replaces
// all are): a deleted slot's value is zeroed, but recycled pages keep
// their backing arrays alive, so pointer-bearing values would still
// pin one page's worth of garbage per free-list entry.
type Index[V any] struct {
	basePage int64 // page number (key >> pageBits) of pages[0]
	pages    []*page[V]
	over     map[int64]*page[V] // pages outside the dense window, by page number
	free     []*page[V]
	n        int
}

// Len returns the number of live entries.
func (x *Index[V]) Len() int { return x.n }

// locate returns the page and in-page slot for key, or a nil page when
// the key's page is not mapped.
func (x *Index[V]) locate(key int64) (*page[V], int64) {
	pi := (key >> pageBits) - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		return x.pages[pi], key & pageMask
	}
	if x.over != nil {
		return x.over[key>>pageBits], key & pageMask
	}
	return nil, key & pageMask
}

// Get returns the value stored under key.
func (x *Index[V]) Get(key int64) (V, bool) {
	p, s := x.locate(key)
	if p == nil || p.occ[s>>6]&(1<<uint(s&63)) == 0 {
		var zero V
		return zero, false
	}
	return p.vals[s], true
}

// Has reports whether key is present.
func (x *Index[V]) Has(key int64) bool {
	p, s := x.locate(key)
	return p != nil && p.occ[s>>6]&(1<<uint(s&63)) != 0
}

// Put stores v under key, inserting or overwriting.  Unlike Swap it
// never reads the old value, which on a cold page is the cost of the
// whole call.
func (x *Index[V]) Put(key int64, v V) {
	p, s := x.ensure(key)
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b == 0 {
		p.occ[w] |= b
		p.live++
		x.n++
	}
	p.vals[s] = v
}

// Swap stores v under key and returns the previous value, if any.
func (x *Index[V]) Swap(key int64, v V) (V, bool) {
	p, s := x.ensure(key)
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b != 0 {
		old := p.vals[s]
		p.vals[s] = v
		return old, true
	}
	p.occ[w] |= b
	p.live++
	x.n++
	p.vals[s] = v
	var zero V
	return zero, false
}

// Delete removes key, returning the value it held.  A page whose last
// entry is deleted moves to the free list immediately.
func (x *Index[V]) Delete(key int64) (V, bool) {
	kp := key >> pageBits
	pi := kp - x.basePage
	inWindow := pi >= 0 && pi < int64(len(x.pages))
	var p *page[V]
	if inWindow {
		p = x.pages[pi]
	} else if x.over != nil {
		p = x.over[kp]
	}
	var zero V
	if p == nil {
		return zero, false
	}
	s := key & pageMask
	w, b := s>>6, uint64(1)<<uint(s&63)
	if p.occ[w]&b == 0 {
		return zero, false
	}
	v := p.vals[s]
	p.vals[s] = zero
	p.occ[w] &^= b
	p.live--
	x.n--
	if p.live == 0 {
		if inWindow {
			x.pages[pi] = nil
		} else {
			delete(x.over, kp)
		}
		x.free = append(x.free, p)
	}
	return v, true
}

// ensure returns the page for key, mapping it if necessary: from the
// dense window when the key fits (re-anchoring the window to the live
// span first), from the overflow map otherwise.
func (x *Index[V]) ensure(key int64) (*page[V], int64) {
	kp := key >> pageBits
	s := key & pageMask
	pi := kp - x.basePage
	if pi >= 0 && pi < int64(len(x.pages)) {
		if p := x.pages[pi]; p != nil {
			return p, s
		}
		p := x.newPage()
		x.pages[pi] = p
		return p, s
	}
	if p := x.over[kp]; p != nil {
		return p, s
	}
	if x.fitWindow(kp) {
		p := x.newPage()
		x.pages[kp-x.basePage] = p
		return p, s
	}
	if x.over == nil {
		x.over = make(map[int64]*page[V])
	}
	p := x.newPage()
	x.over[kp] = p
	return p, s
}

// fitWindow tries to re-anchor the dense window so page kp indexes into
// it, trimming vacated edge pages first so a sliding key window (the
// engine's sequential IDs) reuses a bounded page table.  It reports
// false when the live span plus kp would exceed maxSpanPages.
//
// The window is the table's whole capacity.  The live pages slide within
// it when the new span fits, anchored at the bottom when the window moves
// up and at the top when it moves down, so a window sliding one way has
// the whole spare capacity ahead of it; the table is reallocated, at
// twice the span, only when the span outgrows it.  Overflow pages the
// new window covers move into the table, so no page number is ever
// mapped in both.
func (x *Index[V]) fitWindow(kp int64) bool {
	lo, hi := 0, len(x.pages)
	for lo < hi && x.pages[lo] == nil {
		lo++
	}
	for hi > lo && x.pages[hi-1] == nil {
		hi--
	}
	base, top := kp, kp+1 // live page span once kp is mapped
	if lo < hi {
		base = min(base, x.basePage+int64(lo))
		top = max(top, x.basePage+int64(hi))
		if top-base > maxSpanPages {
			return false
		}
	}
	tbl := x.pages[:cap(x.pages)]
	if span := int(top - base); span > len(tbl) {
		tbl = make([]*page[V], min(2*span, maxSpanPages))
	}
	newBase := base
	if kp < x.basePage {
		newBase = top - int64(len(tbl))
	}
	if lo < hi { // else every slot is already nil
		off := int(x.basePage + int64(lo) - newBase)
		n := copy(tbl[off:], x.pages[lo:hi])
		clear(tbl[:off])
		clear(tbl[off+n:])
	}
	x.pages = tbl
	x.basePage = newBase
	for op, p := range x.over {
		if pi := op - newBase; pi >= 0 && pi < int64(len(tbl)) {
			tbl[pi] = p
			delete(x.over, op)
		}
	}
	return true
}

// newPage takes a page from the free list or allocates one.
func (x *Index[V]) newPage() *page[V] {
	if n := len(x.free); n > 0 {
		p := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return p
	}
	return new(page[V])
}

// Reset empties the index, recycling every mapped page.
func (x *Index[V]) Reset() {
	for i, p := range x.pages {
		if p == nil {
			continue
		}
		if p.live > 0 {
			*p = page[V]{}
		}
		x.free = append(x.free, p)
		x.pages[i] = nil
	}
	for kp, p := range x.over {
		if p.live > 0 {
			*p = page[V]{}
		}
		x.free = append(x.free, p)
		delete(x.over, kp)
	}
	x.pages = x.pages[:0]
	x.basePage = 0
	x.n = 0
}

// Pages returns the number of currently mapped pages (diagnostics and
// memory-bound tests).
func (x *Index[V]) Pages() int {
	n := len(x.over)
	for _, p := range x.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Range calls f for every live entry until f returns false.  Iteration
// order is ascending by key.
func (x *Index[V]) Range(f func(key int64, v V) bool) {
	if len(x.over) == 0 {
		for pi, p := range x.pages {
			if p != nil && !rangePage(x.basePage+int64(pi), p, f) {
				return
			}
		}
		return
	}
	// Overflow pages present: merge both sources in page-number order.
	kps := make([]int64, 0, len(x.over)+len(x.pages))
	for kp := range x.over {
		kps = append(kps, kp)
	}
	for pi, p := range x.pages {
		if p != nil {
			kps = append(kps, x.basePage+int64(pi))
		}
	}
	sort.Slice(kps, func(i, j int) bool { return kps[i] < kps[j] })
	for _, kp := range kps {
		p := x.over[kp]
		if p == nil {
			p = x.pages[kp-x.basePage]
		}
		if !rangePage(kp, p, f) {
			return
		}
	}
}

func rangePage[V any](kp int64, p *page[V], f func(key int64, v V) bool) bool {
	base := kp << pageBits
	for w, word := range p.occ {
		for word != 0 {
			s := int64(w<<6) + int64(bits.TrailingZeros64(word))
			if !f(base+s, p.vals[s]) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}
