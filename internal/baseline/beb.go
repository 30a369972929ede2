package baseline

import (
	"fmt"
	"math"

	"repro/internal/arena"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// BEBStats aggregates counters for a backoff execution.
type BEBStats struct {
	Transmissions int64
	Failures      int64
	Delivered     int64
	MaxWindow     int64
}

// Backoff is a window-based backoff protocol: each packet transmits at a
// uniformly random slot of its current window, and every failed attempt
// grows the window per the protocol's schedule.  Constructors:
//
//   - NewExponentialBackoff: classic binary exponential backoff
//     (Ethernet/802.11 style), window doubling;
//   - NewBackoff: exponential with configurable initial window and base;
//   - NewPolynomialBackoff: window (k+1)^p after k failures — the
//     polynomial-backoff family studied alongside exponential in the
//     contention-resolution literature.
//
// Feedback adaptation for the coded channel: the protocol is ack-based —
// a packet treats "transmitted and not delivered in that same slot" as a
// failure.  On the classical channel (κ = 1) this is exact; on a coded
// channel (κ > 1) it is pessimistic, since a later decoding window can
// still deliver the packet, in which case it simply leaves the system.
type Backoff struct {
	rand     *rng.Rand
	name     string
	windowFn func(failures int64) int64
	// windows[k] is windowFn(k) for the first windowTableLen failure
	// counts, so rescheduling reads the window instead of calling Pow.
	windows [windowTableLen]int64

	sched txHeap
	// failures holds each pending packet's failure count; presence marks
	// the packet alive (heap entries of delivered packets are skipped
	// lazily).
	failures arena.Index[int64]
	inFlight []channel.PacketID
	pending  int
	stats    BEBStats
}

// ExponentialBackoff is the name the rest of the repository uses for the
// classic protocol.
type ExponentialBackoff = Backoff

var _ protocol.Protocol = (*Backoff)(nil)
var _ protocol.Waker = (*Backoff)(nil)

// NewExponentialBackoff returns binary exponential backoff (initial
// window 1, doubling) using the given random stream.
func NewExponentialBackoff(r *rng.Rand) *Backoff {
	return NewBackoff(r, 1, 2)
}

// NewBackoff returns generalized exponential backoff with the given
// initial window and window growth base (> 1): after k failures the
// window is initialWindow·base^k.
func NewBackoff(r *rng.Rand, initialWindow int64, base float64) *Backoff {
	if r == nil {
		panic("baseline: nil rng")
	}
	if initialWindow < 1 {
		panic("baseline: initial window must be at least 1")
	}
	if base <= 1 {
		panic("baseline: backoff base must exceed 1")
	}
	return newBackoff(r, "exponential-backoff", func(k int64) int64 {
		w := float64(initialWindow) * math.Pow(base, float64(k))
		if w > 1<<40 {
			return 1 << 40
		}
		if w < 1 {
			return 1
		}
		return int64(w)
	})
}

// NewPolynomialBackoff returns polynomial backoff: after k failures the
// window is (k+1)^exp.  exp must be positive; exp = 2 (quadratic) is the
// commonly analyzed variant.
func NewPolynomialBackoff(r *rng.Rand, exp float64) *Backoff {
	if r == nil {
		panic("baseline: nil rng")
	}
	if exp <= 0 {
		panic("baseline: polynomial exponent must be positive")
	}
	return newBackoff(r, fmt.Sprintf("polynomial-backoff(%g)", exp), func(k int64) int64 {
		w := math.Pow(float64(k+1), exp)
		if w > 1<<40 {
			return 1 << 40
		}
		if w < 1 {
			return 1
		}
		return int64(w)
	})
}

// windowTableLen is how many failure counts the window table covers; 64
// spans binary exponential backoff past its 2^40 cap, and longer failure
// streaks fall back to the window function.
const windowTableLen = 64

func newBackoff(r *rng.Rand, name string, windowFn func(int64) int64) *Backoff {
	e := &Backoff{name: name, windowFn: windowFn}
	for k := range e.windows {
		e.windows[k] = windowFn(int64(k))
	}
	e.Reset(r)
	return e
}

// Reset leaves e exactly as its constructor built it, window schedule
// included, for a new run on stream r, but keeps its storage: the
// transmission heap, the failure-count pages and the in-flight buffer.
// Every constructor fixes the schedule and then calls Reset.
func (e *Backoff) Reset(r *rng.Rand) {
	if r == nil {
		panic("baseline: nil rng")
	}
	e.rand = r
	e.sched = e.sched[:0]
	e.failures.Reset()
	e.inFlight = e.inFlight[:0]
	e.pending = 0
	e.stats = BEBStats{}
}

// window returns the window after k failures.
func (e *Backoff) window(k int64) int64 {
	if k < windowTableLen {
		return e.windows[k]
	}
	return e.windowFn(k)
}

// Name implements protocol.Protocol.
func (e *Backoff) Name() string { return e.name }

// Stats returns a copy of the accumulated counters.
func (e *Backoff) Stats() BEBStats { return e.stats }

// Pending implements protocol.Protocol.
func (e *Backoff) Pending() int { return e.pending }

// Inject implements protocol.Protocol: each arrival is scheduled at a
// uniform slot of its initial window, starting next slot.
func (e *Backoff) Inject(now int64, ids []channel.PacketID) {
	for _, id := range ids {
		if e.failures.Has(int64(id)) {
			panic(fmt.Sprintf("baseline: duplicate injection of packet %d", id))
		}
		e.failures.Put(int64(id), 0)
		e.pending++
		e.sched.push(txEntry{slot: now + 1 + e.rand.Int63n(e.windows[0]), id: id})
	}
}

// Transmitters implements protocol.Protocol: pops every packet scheduled
// for this slot.
func (e *Backoff) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	e.inFlight = e.inFlight[:0]
	for len(e.sched) > 0 && e.sched[0].slot <= now {
		entry := e.sched.pop()
		if !e.failures.Has(int64(entry.id)) {
			continue // delivered earlier by a wider decoding window
		}
		e.inFlight = append(e.inFlight, entry.id)
	}
	e.stats.Transmissions += int64(len(e.inFlight))
	return append(buf, e.inFlight...)
}

// Observe implements protocol.Protocol: deliveries remove packets;
// transmitted-but-undelivered packets grow their windows and reschedule.
func (e *Backoff) Observe(fb channel.Feedback) {
	if fb.Event != nil {
		for _, id := range fb.Event.Packets {
			if _, ok := e.failures.Delete(int64(id)); ok {
				e.pending--
				e.stats.Delivered++
			}
		}
	}
	for _, id := range e.inFlight {
		k, ok := e.failures.Get(int64(id))
		if !ok {
			continue // delivered this slot
		}
		e.stats.Failures++
		k++
		e.failures.Put(int64(id), k)
		w := e.window(k)
		if w > e.stats.MaxWindow {
			e.stats.MaxWindow = w
		}
		e.sched.push(txEntry{slot: fb.Slot + 1 + e.rand.Int63n(w), id: id})
	}
	e.inFlight = e.inFlight[:0]
}

// NextWake implements protocol.Waker: the earliest scheduled
// transmission.  Backoff ignores silence, so the engine may skip the
// quiet slots in between.
func (e *Backoff) NextWake(now int64) int64 {
	for len(e.sched) > 0 {
		if !e.failures.Has(int64(e.sched[0].id)) {
			e.sched.pop()
			continue
		}
		if e.sched[0].slot < now {
			return now
		}
		return e.sched[0].slot
	}
	return -1
}

// txEntry is a scheduled transmission.
type txEntry struct {
	slot int64
	id   channel.PacketID
}

// txHeap is a min-heap of scheduled transmissions ordered by slot.  Its
// sift-up and sift-down make exactly container/heap's comparisons and
// moves, so entries with equal slots pop in the order container/heap
// would pop them — the order rescheduling draws from the shared RNG —
// without boxing every entry into an interface.
type txHeap []txEntry

// push adds x and restores the heap order (container/heap's up).
func (h *txHeap) push(x txEntry) {
	*h = append(*h, x)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(x.slot < s[i].slot) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = x
}

// pop removes and returns the minimum entry: the last entry moves to the
// root and sifts down (container/heap's Pop and down).
func (h *txHeap) pop() txEntry {
	s := *h
	n := len(s) - 1
	top, x := s[0], s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].slot < s[j].slot {
			j = j2
		}
		if !(s[j].slot < x.slot) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}
