package baseline

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// newPopulation returns an empty population with activation probability
// p0, update factor f > 1, and probability ceiling pMax.
func newPopulation(p0, factor, pMax float64) *population {
	p := new(population)
	p.reset(p0, factor, pMax)
	return p
}

// runBatch drives a protocol on a channel with a batch of n packets until
// done or the slot limit, returning completion time (-1 if unfinished)
// and the delivered count.
func runBatch(p protocol.Protocol, ch *channel.Channel, n int, limit int64) (int64, int) {
	ids := make([]channel.PacketID, n)
	for i := range ids {
		ids[i] = channel.PacketID(i)
	}
	p.Inject(0, ids)
	delivered := 0
	buf := make([]channel.PacketID, 0, 64)
	for now := int64(0); now < limit; now++ {
		buf = p.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		p.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		if ev != nil {
			delivered += len(ev.Packets)
		}
		if p.Pending() == 0 {
			return now + 1, delivered
		}
	}
	return -1, delivered
}

func TestPopulationBasics(t *testing.T) {
	p := newPopulation(0.25, 2, 1)
	if p.Len() != 0 {
		t.Fatal("new population not empty")
	}
	p.Add(1)
	p.Add(2)
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	c, pmin := p.Contention()
	if math.Abs(c-0.5) > 1e-12 || math.Abs(pmin-0.25) > 1e-12 {
		t.Fatalf("contention %v pmin %v", c, pmin)
	}
	if !p.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if p.Remove(1) {
		t.Fatal("double Remove succeeded")
	}
	if p.Len() != 1 {
		t.Fatalf("Len after remove = %d", p.Len())
	}
}

func TestPopulationDuplicatePanics(t *testing.T) {
	p := newPopulation(0.25, 2, 1)
	p.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	p.Add(1)
}

func TestPopulationShiftAndCap(t *testing.T) {
	p := newPopulation(0.25, 2, 1)
	p.Add(1)
	p.Shift(1)
	c, _ := p.Contention()
	if math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("after one up-shift contention %v, want 0.5", c)
	}
	p.Shift(1)
	if c, _ = p.Contention(); math.Abs(c-1) > 1e-12 {
		t.Fatalf("after two up-shifts contention %v, want 1 (capped)", c)
	}
	p.Shift(1) // capped: stays at 1
	if c, _ = p.Contention(); math.Abs(c-1) > 1e-12 {
		t.Fatalf("cap exceeded: contention %v", c)
	}
	p.Shift(-1)
	if c, _ = p.Contention(); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("down-shift after cap: contention %v, want 0.5", c)
	}
}

func TestPopulationCapMergesDistinctExponents(t *testing.T) {
	p := newPopulation(0.25, 2, 1)
	p.Add(1)   // exponent 0
	p.Shift(1) // packet 1 at exponent 1 (p=1/2)
	p.Add(2)   // packet 2 at exponent 0 (p=1/4)
	p.Shift(1) // p1 capped at 1, p2 at 1/2
	p.Shift(1) // p1 stays 1, p2 capped at 1
	c, pmin := p.Contention()
	if math.Abs(c-2) > 1e-12 || math.Abs(pmin-1) > 1e-12 {
		t.Fatalf("contention %v pmin %v, want 2, 1", c, pmin)
	}
	// One down-shift: both leave the cap together (they merged).
	p.Shift(-1)
	c, pmin = p.Contention()
	if math.Abs(c-1) > 1e-12 || math.Abs(pmin-0.5) > 1e-12 {
		t.Fatalf("after merge+down contention %v pmin %v, want 1, 0.5", c, pmin)
	}
}

// TestPopulationInvariants drives random arrivals, deliveries and
// shifts and checks, after every step, the invariants the O(1) saturate
// and table lookups rely on: buckets sorted by distinct base, none empty,
// every effective exponent within [eFloor, eCap], every packet's
// recorded location pointing at it, and emptied buckets recycled rather
// than reallocated.
func TestPopulationInvariants(t *testing.T) {
	r := rng.New(31)
	p := newPopulation(1.0/8, 1.1, 0.5)
	live := map[channel.PacketID]bool{}
	var next channel.PacketID
	for step := 0; step < 20_000; step++ {
		switch op := r.Intn(10); {
		case op < 3:
			p.Add(next)
			live[next] = true
			next++
		case op < 5 && len(live) > 0:
			for id := range live {
				if !p.Remove(id) {
					t.Fatalf("step %d: Remove(%d) missed a live packet", step, id)
				}
				delete(live, id)
				break
			}
		case op < 7:
			p.Shift(1)
		default:
			p.Shift(-1)
		}
		if p.Len() != len(live) {
			t.Fatalf("step %d: Len %d, want %d", step, p.Len(), len(live))
		}
		for i, b := range p.buckets {
			if len(b.ids) == 0 {
				t.Fatalf("step %d: empty bucket left live", step)
			}
			if i > 0 && p.buckets[i-1].base >= b.base {
				t.Fatalf("step %d: buckets out of order at %d", step, i)
			}
			if e := b.base + p.shift; e < p.eFloor || e > p.eCap {
				t.Fatalf("step %d: bucket at exponent %d outside [%d, %d]", step, e, p.eFloor, p.eCap)
			}
			for idx, id := range b.ids {
				if l, ok := p.loc.Get(int64(id)); !ok || p.byHandle[l.b] != b || int(l.idx) != idx {
					t.Fatalf("step %d: packet %d recorded at %+v, lives in bucket %d slot %d", step, id, l, b.handle, idx)
				}
			}
		}
		if limit := p.eCap - p.eFloor + 2; len(p.byHandle) > limit {
			t.Fatalf("step %d: %d buckets allocated for %d exponents", step, len(p.byHandle), limit)
		}
	}
}

// TestPopulationProbTable checks the table lookup against the direct
// expression at every exponent, including far past both saturation
// bounds.
func TestPopulationProbTable(t *testing.T) {
	for _, p := range []*population{newPopulation(1.0/8, 1.1, 0.5), newPopulation(0.25, 2, 1), newPopulation(1, 3, 1)} {
		for e := p.eFloor - 50; e <= p.eCap+50; e++ {
			s := p.slot(e)
			if p.prob(e) != p.rawProb(e) || p.logq[s] != math.Log1p(-p.rawProb(e)) {
				t.Fatalf("exponent %d: table (%v, %v), direct (%v, %v)",
					e, p.prob(e), p.logq[s], p.rawProb(e), math.Log1p(-p.rawProb(e)))
			}
		}
	}
}

func TestPopulationSampleMean(t *testing.T) {
	p := newPopulation(0.1, 2, 1)
	r := rng.New(4)
	for i := 0; i < 1000; i++ {
		p.Add(channel.PacketID(i))
	}
	total := 0
	const slots = 2000
	var buf []channel.PacketID
	for i := 0; i < slots; i++ {
		buf = p.Sample(r, buf[:0])
		total += len(buf)
	}
	mean := float64(total) / slots
	if math.Abs(mean-100) > 5 {
		t.Fatalf("sample mean %v, want ~100", mean)
	}
}

func TestPopulationValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"p0 zero":    func() { newPopulation(0, 2, 1) },
		"factor one": func() { newPopulation(0.5, 1, 1) },
		"pmax zero":  func() { newPopulation(0.5, 2, 0) },
		"bad shift":  func() { newPopulation(0.5, 2, 1).Shift(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBEBBatchClassical(t *testing.T) {
	const n = 200
	e := NewExponentialBackoff(rng.New(1))
	ch := channel.New(1, 0) // classical radio model
	done, delivered := runBatch(e, ch, n, 200_000)
	if done < 0 {
		t.Fatalf("BEB did not finish %d packets (delivered %d)", n, delivered)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	st := e.Stats()
	if st.Delivered != n {
		t.Fatalf("stats delivered %d", st.Delivered)
	}
	// BEB takes Θ(n log n) on a batch; sanity: slower than capacity.
	if done < n {
		t.Fatalf("BEB finished faster than channel capacity: %d < %d", done, n)
	}
	t.Logf("BEB batch n=%d: %d slots (throughput %.3f), max window %d",
		n, done, float64(n)/float64(done), st.MaxWindow)
}

func TestBEBValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"nil rng":  func() { NewExponentialBackoff(nil) },
		"window 0": func() { NewBackoff(rng.New(1), 0, 2) },
		"base 1":   func() { NewBackoff(rng.New(1), 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBEBDuplicateInjectPanics(t *testing.T) {
	e := NewExponentialBackoff(rng.New(1))
	e.Inject(0, []channel.PacketID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate inject did not panic")
		}
	}()
	e.Inject(1, []channel.PacketID{1})
}

func TestBEBNextWake(t *testing.T) {
	e := NewExponentialBackoff(rng.New(2))
	if e.NextWake(0) != -1 {
		t.Fatal("empty BEB has a wake time")
	}
	e.Inject(0, []channel.PacketID{1})
	w := e.NextWake(0)
	if w != 1 {
		t.Fatalf("initial wake %d, want 1 (window 1)", w)
	}
}

func TestBEBSingletonDeliveredImmediately(t *testing.T) {
	e := NewExponentialBackoff(rng.New(3))
	ch := channel.New(1, 0)
	done, _ := runBatch(e, ch, 1, 100)
	if done < 0 || done > 3 {
		t.Fatalf("lone packet took %d slots", done)
	}
}

func TestAlohaStaticBatch(t *testing.T) {
	const n = 100
	a := NewSlottedAloha(rng.New(5), 1.0/n)
	ch := channel.New(1, 0)
	done, delivered := runBatch(a, ch, n, 100_000)
	if done < 0 {
		t.Fatalf("ALOHA did not finish (delivered %d)", delivered)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
}

func TestGenieAlohaThroughputNearOneOverE(t *testing.T) {
	// With p = 1/backlog, success probability per slot is ~1/e while the
	// backlog is large.  Measure over the first half of a big batch.
	const n = 5000
	a := NewGenieAloha(rng.New(7), 1)
	ch := channel.New(1, 0)
	ids := make([]channel.PacketID, n)
	for i := range ids {
		ids[i] = channel.PacketID(i)
	}
	a.Inject(0, ids)
	buf := make([]channel.PacketID, 0, 64)
	var now int64
	for ; a.Pending() > n/2; now++ {
		buf = a.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		a.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
	}
	throughput := float64(n/2) / float64(now)
	if math.Abs(throughput-1/math.E) > 0.03 {
		t.Fatalf("genie ALOHA throughput %.4f, want ~%.4f", throughput, 1/math.E)
	}
}

func TestAlohaValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"nil rng":   func() { NewSlottedAloha(nil, 0.5) },
		"p zero":    func() { NewSlottedAloha(rng.New(1), 0) },
		"p high":    func() { NewSlottedAloha(rng.New(1), 1.5) },
		"genie nil": func() { NewGenieAloha(nil, 1) },
		"genie c":   func() { NewGenieAloha(rng.New(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAlohaNames(t *testing.T) {
	if NewSlottedAloha(rng.New(1), 0.5).Name() != "slotted-aloha" {
		t.Fatal("static name wrong")
	}
	if NewGenieAloha(rng.New(1), 1).Name() != "genie-aloha" {
		t.Fatal("genie name wrong")
	}
}

func TestMWBatchClassical(t *testing.T) {
	const n = 300
	m := NewMultiplicativeWeights(rng.New(9), DefaultMWConfig())
	ch := channel.New(1, 0)
	done, delivered := runBatch(m, ch, n, 100_000)
	if done < 0 {
		t.Fatalf("MW did not finish (delivered %d)", delivered)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	st := m.Stats()
	if st.UpSteps == 0 || st.DownSteps == 0 {
		t.Fatalf("MW never adapted: %+v", st)
	}
	t.Logf("MW batch n=%d: %d slots (throughput %.3f)", n, done, float64(n)/float64(done))
}

func TestMWContentionTracksTarget(t *testing.T) {
	// Under sustained moderate load, MW should keep contention near 1
	// (its implicit target on the classical channel), not diverge.
	m := NewMultiplicativeWeights(rng.New(11), DefaultMWConfig())
	ch := channel.New(1, 0)
	buf := make([]channel.PacketID, 0, 16)
	var nextID channel.PacketID
	for now := int64(0); now < 20000; now++ {
		if now%5 == 0 { // load 0.2 << 1/e
			m.Inject(now, []channel.PacketID{nextID})
			nextID++
		}
		buf = m.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		m.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
	}
	if m.Pending() > 500 {
		t.Fatalf("MW diverged at load 0.2: backlog %d", m.Pending())
	}
}

func TestMWNilRngPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng did not panic")
		}
	}()
	NewMultiplicativeWeights(nil, DefaultMWConfig())
}

// TestProtocolsOnCodedChannel: all baselines remain correct (conservation
// and eventual completion) on a coded channel with κ > 1.
func TestProtocolsOnCodedChannel(t *testing.T) {
	const n, kappa = 150, 8
	protos := map[string]protocol.Protocol{
		"beb":   NewExponentialBackoff(rng.New(21)),
		"aloha": NewGenieAloha(rng.New(22), 1),
		"mw":    NewMultiplicativeWeights(rng.New(23), DefaultMWConfig()),
	}
	for name, p := range protos {
		ch := channel.New(kappa, 4*kappa)
		done, delivered := runBatch(p, ch, n, 300_000)
		if done < 0 {
			t.Fatalf("%s did not finish on coded channel (delivered %d)", name, delivered)
		}
		if delivered != n {
			t.Fatalf("%s delivered %d of %d", name, delivered, n)
		}
	}
}

func BenchmarkBEBBatch1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewExponentialBackoff(rng.New(uint64(i)))
		ch := channel.New(1, 0)
		if done, _ := runBatch(e, ch, 1000, 10_000_000); done < 0 {
			b.Fatal("unfinished")
		}
	}
}

func BenchmarkGenieAlohaBatch1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewGenieAloha(rng.New(uint64(i)), 1)
		ch := channel.New(1, 0)
		if done, _ := runBatch(a, ch, 1000, 10_000_000); done < 0 {
			b.Fatal("unfinished")
		}
	}
}

func TestPolynomialBackoffBatch(t *testing.T) {
	const n = 150
	p := NewPolynomialBackoff(rng.New(41), 2)
	ch := channel.New(1, 0)
	done, delivered := runBatch(p, ch, n, 500_000)
	if done < 0 {
		t.Fatalf("polynomial backoff did not finish (delivered %d)", delivered)
	}
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if p.Name() != "polynomial-backoff(2)" {
		t.Fatalf("name %q", p.Name())
	}
}

func TestPolynomialWindowGrowth(t *testing.T) {
	p := NewPolynomialBackoff(rng.New(1), 2)
	for _, tc := range []struct{ k, want int64 }{{0, 1}, {1, 4}, {2, 9}, {9, 100}} {
		if got := p.windowFn(tc.k); got != tc.want {
			t.Fatalf("windowFn(%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

func TestPolynomialValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"nil rng": func() { NewPolynomialBackoff(nil, 2) },
		"exp 0":   func() { NewPolynomialBackoff(rng.New(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWindowTableMatchesWindowFn(t *testing.T) {
	for _, e := range []*Backoff{
		NewExponentialBackoff(rng.New(1)),
		NewBackoff(rng.New(1), 3, 1.5),
		NewBackoff(rng.New(1), 1, 1.0001),
		NewPolynomialBackoff(rng.New(1), 2),
	} {
		for k := int64(0); k < 3*windowTableLen; k++ {
			if got, want := e.window(k), e.windowFn(k); got != want {
				t.Fatalf("%s: window(%d) = %d, windowFn %d", e.Name(), k, got, want)
			}
		}
	}
}

// refHeap is the container/heap implementation of the schedule that
// txHeap replaced, kept as the reference its pop order must reproduce.
type refHeap []txEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].slot < h[j].slot }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(txEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestTxHeapMatchesContainerHeap runs random push/pop sequences whose
// slots collide heavily — the case where heap order, not slot order,
// decides which packet pops first — through txHeap and container/heap
// and requires identical pops and identical backing arrays throughout.
func TestTxHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		var h txHeap
		var ref refHeap
		slots := int64(1 + r.Intn(8)) // few distinct slots: heavy ties
		var id channel.PacketID
		for op := 0; op < 5000; op++ {
			if len(h) == 0 || r.Intn(5) < 3 {
				e := txEntry{slot: r.Int63n(slots), id: id}
				id++
				h.push(e)
				heap.Push(&ref, e)
			} else {
				got, want := h.pop(), heap.Pop(&ref).(txEntry)
				if got != want {
					t.Fatalf("seed %d op %d: popped %+v, container/heap %+v", seed, op, got, want)
				}
			}
			if len(h) != len(ref) {
				t.Fatalf("seed %d op %d: %d entries, container/heap %d", seed, op, len(h), len(ref))
			}
			for i := range h {
				if h[i] != ref[i] {
					t.Fatalf("seed %d op %d: entry %d is %+v, container/heap %+v", seed, op, i, h[i], ref[i])
				}
			}
		}
	}
}

func TestExponentialWindowOverflowClamped(t *testing.T) {
	p := NewBackoff(rng.New(1), 1, 2)
	if w := p.windowFn(100); w != 1<<40 {
		t.Fatalf("window not clamped: %d", w)
	}
}
