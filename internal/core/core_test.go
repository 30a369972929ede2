package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// drive runs the protocol against a real channel for the given number of
// slots, injecting per the inject function (slot -> count), and returns
// the set of delivered packets.
func drive(t *testing.T, d *DecodableBackoff, ch *channel.Channel, slots int64,
	inject func(now int64) int) map[channel.PacketID]bool {
	t.Helper()
	delivered := make(map[channel.PacketID]bool)
	var nextID channel.PacketID
	buf := make([]channel.PacketID, 0, 64)
	idBuf := make([]channel.PacketID, 0, 16)
	for now := int64(0); now < slots; now++ {
		if inject != nil {
			n := inject(now)
			idBuf = idBuf[:0]
			for i := 0; i < n; i++ {
				idBuf = append(idBuf, nextID)
				nextID++
			}
			if len(idBuf) > 0 {
				d.Inject(now, idBuf)
			}
		}
		buf = d.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		if ev != nil {
			for _, id := range ev.Packets {
				if delivered[id] {
					t.Fatalf("packet %d delivered twice", id)
				}
				delivered[id] = true
			}
		}
	}
	return delivered
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"kappa too small": func() { New(5, rng.New(1)) },
		"nil rng":         func() { New(8, nil) },
		"bad factor":      func() { New(8, rng.New(1), WithUpdateFactor(1)) },
		"bad p0 low":      func() { New(8, rng.New(1), WithInitialProb(0)) },
		"bad p0 high":     func() { New(8, rng.New(1), WithInitialProb(1.5)) },
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

func TestDuplicateInjectPanics(t *testing.T) {
	d := New(16, rng.New(1))
	d.Inject(0, []channel.PacketID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate inject did not panic")
		}
	}()
	d.Inject(1, []channel.PacketID{1})
}

// TestBatchCompletes: a batch of n packets is fully delivered, each
// exactly once, and conservation holds.
func TestBatchCompletes(t *testing.T) {
	const kappa, n = 16, 500
	d := New(kappa, rng.New(42))
	ch := channel.New(kappa, 4*kappa)
	delivered := drive(t, d, ch, 4*n, func(now int64) int {
		if now == 0 {
			return n
		}
		return 0
	})
	if len(delivered) != n {
		t.Fatalf("delivered %d of %d packets", len(delivered), n)
	}
	if d.Pending() != 0 {
		t.Fatalf("%d packets stuck in system", d.Pending())
	}
	if got := d.Stats().Delivered; got != n {
		t.Fatalf("stats.Delivered = %d, want %d", got, n)
	}
}

// TestBatchThroughputBound: Theorem 16 — a batch of n packets completes
// by n(1+10/κ)+O(κ).  We check the measured completion time against the
// theorem bound with a generous O(κ) constant.
func TestBatchThroughputBound(t *testing.T) {
	const kappa, n = 64, 2000
	d := New(kappa, rng.New(7))
	ch := channel.New(kappa, 4*kappa)
	var completion int64 = -1
	var nextID channel.PacketID
	buf := make([]channel.PacketID, 0, 128)
	remaining := n
	for now := int64(0); now < 4*n; now++ {
		if now == 0 {
			ids := make([]channel.PacketID, n)
			for i := range ids {
				ids[i] = nextID
				nextID++
			}
			d.Inject(0, ids)
		}
		buf = d.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		if ev != nil {
			remaining -= len(ev.Packets)
			if remaining == 0 {
				completion = now + 1
				break
			}
		}
	}
	if completion < 0 {
		t.Fatal("batch did not complete in 4n slots")
	}
	bound := float64(n)*(1+10/float64(kappa)) + 20*float64(kappa)
	if float64(completion) > bound {
		t.Fatalf("completion %d exceeds Theorem 16 bound %v", completion, bound)
	}
	if completion < n {
		t.Fatalf("completion %d < n=%d violates channel capacity", completion, n)
	}
	t.Logf("batch n=%d kappa=%d: completion %d slots (throughput %.3f)",
		n, kappa, completion, float64(n)/float64(completion))
}

// TestLemma2Correspondence: every epoch classified by the protocol
// matches the channel's independent view — successful epochs coincide
// exactly with decoding events delivering the epoch's joiners, overfull
// epochs have length kappa, silent epochs length 1.
func TestLemma2Correspondence(t *testing.T) {
	const kappa = 8
	var infos []protocol.EpochInfo
	d := New(kappa, rng.New(11), WithEpochObserver(
		protocol.EpochObserverFunc(func(info protocol.EpochInfo) { infos = append(infos, info) })))
	ch := channel.New(kappa, 4*kappa)
	drive(t, d, ch, 3000, func(now int64) int {
		if now%3 == 0 && now < 2400 {
			return 1
		}
		return 0
	})
	if len(infos) == 0 {
		t.Fatal("no epochs observed")
	}
	seenKinds := make(map[protocol.EpochKind]int)
	for i, info := range infos {
		seenKinds[info.Kind]++
		switch info.Kind {
		case protocol.EpochSilent:
			if info.Length != 1 {
				t.Fatalf("epoch %d: silent epoch length %d", i, info.Length)
			}
			if info.Joiners != 0 {
				t.Fatalf("epoch %d: silent epoch with %d joiners", i, info.Joiners)
			}
		case protocol.EpochSuccessful:
			if int64(info.Joiners) != info.Length {
				t.Fatalf("epoch %d: successful epoch length %d != joiners %d (Lemma 2)",
					i, info.Length, info.Joiners)
			}
			if info.Joiners > kappa {
				t.Fatalf("epoch %d: successful epoch with %d > kappa joiners", i, info.Joiners)
			}
		case protocol.EpochOverfull:
			if info.Length != kappa {
				t.Fatalf("epoch %d: overfull epoch length %d != kappa", i, info.Length)
			}
			if info.Joiners <= kappa {
				t.Fatalf("epoch %d: overfull epoch with only %d joiners", i, info.Joiners)
			}
		}
	}
	if seenKinds[protocol.EpochSuccessful] == 0 {
		t.Fatal("workload produced no successful epochs")
	}
	if seenKinds[protocol.EpochSilent] == 0 {
		t.Fatal("workload produced no silent epochs")
	}
}

// TestConservation: injected = delivered + pending at all times, under a
// bursty arrival pattern.
func TestConservation(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(13))
	ch := channel.New(kappa, 4*kappa)
	injected := 0
	var deliveredCount int
	var nextID channel.PacketID
	buf := make([]channel.PacketID, 0, 64)
	for now := int64(0); now < 5000; now++ {
		if now%100 == 0 && now < 4000 {
			ids := make([]channel.PacketID, 30)
			for i := range ids {
				ids[i] = nextID
				nextID++
			}
			d.Inject(now, ids)
			injected += 30
		}
		buf = d.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		if ev != nil {
			deliveredCount += len(ev.Packets)
		}
		if injected != deliveredCount+d.Pending() {
			t.Fatalf("slot %d: conservation violated: injected %d != delivered %d + pending %d",
				now, injected, deliveredCount, d.Pending())
		}
	}
	if deliveredCount == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestAdmissionControl: packets injected mid-epoch stay inactive until a
// silent slot.
func TestAdmissionControl(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(3))
	// Inject while no epoch has run: packets are inactive.
	d.Inject(0, []channel.PacketID{1, 2, 3})
	n, m, c, pmin := d.Snapshot()
	if n != 3 || m != 3 {
		t.Fatalf("snapshot N=%d M=%d, want 3 inactive", n, m)
	}
	if c != 0 {
		t.Fatalf("inactive packets contribute contention %v", c)
	}
	if pmin != 1 {
		t.Fatalf("pmin with no active packets = %v, want 1", pmin)
	}
	// First slot: nobody transmits (all inactive) -> silent -> activation.
	buf := d.Transmitters(0, nil)
	if len(buf) != 0 {
		t.Fatalf("inactive packets transmitted: %v", buf)
	}
	d.Observe(channel.Feedback{Slot: 0, Silent: true})
	n, m, c, pmin = d.Snapshot()
	if m != 0 {
		t.Fatalf("inactive after silent slot: %d", m)
	}
	if n != 3 {
		t.Fatalf("N changed on activation: %d", n)
	}
	wantP := 1 / math.Sqrt(kappa)
	if math.Abs(c-3*wantP) > 1e-12 {
		t.Fatalf("contention after activation = %v, want %v", c, 3*wantP)
	}
	if math.Abs(pmin-wantP) > 1e-12 {
		t.Fatalf("pmin after activation = %v, want %v", pmin, wantP)
	}
	if d.Stats().Activations != 3 {
		t.Fatalf("activations = %d", d.Stats().Activations)
	}
}

// TestNoAdmissionControlActivatesImmediately checks the ablation option.
func TestNoAdmissionControlActivatesImmediately(t *testing.T) {
	d := New(16, rng.New(3), WithoutAdmissionControl())
	d.Inject(0, []channel.PacketID{1, 2})
	_, m, c, _ := d.Snapshot()
	if m != 0 {
		t.Fatalf("inactive count %d with admission control disabled", m)
	}
	if c == 0 {
		t.Fatal("no contention after immediate activation")
	}
}

// TestProbabilityUpdates: silent epochs raise probabilities by the factor
// (capped at 1), overfull epochs lower them.
func TestProbabilityUpdates(t *testing.T) {
	const kappa = 16 // factor = 2, p0 = 1/4, cap after 2 raises
	d := New(kappa, rng.New(5))
	d.Inject(0, []channel.PacketID{1})
	// Slot 0: silent (packet inactive) -> activate at p0 = 1/4.
	d.Transmitters(0, nil)
	d.Observe(channel.Feedback{Slot: 0, Silent: true})
	_, _, c, _ := d.Snapshot()
	if math.Abs(c-0.25) > 1e-12 {
		t.Fatalf("p after activation = %v, want 0.25", c)
	}
	// Force silent epochs until the probability caps at 1.  The packet
	// joins epochs randomly; when it joins alone it is delivered, so use
	// feedback directly: feed "silent" regardless (legal only when it did
	// not join; retry until the random stream cooperates is flaky).
	// Instead verify caps via many packets: inject enough that some stay.
	d2 := New(kappa, rng.New(6))
	d2.Inject(0, []channel.PacketID{10})
	d2.Transmitters(0, nil)
	d2.Observe(channel.Feedback{Slot: 0, Silent: true}) // activated, p=1/4
	// Simulate: epoch where the packet did not join (empty transmitters)
	// is genuinely silent; repeat until p reaches 1 (at most 2 raises).
	raised := 0
	for raised < 5 {
		buf := d2.Transmitters(int64(1+raised), nil)
		if len(buf) == 0 {
			d2.Observe(channel.Feedback{Slot: int64(1 + raised), Silent: true})
			raised++
			_, _, c, _ := d2.Snapshot()
			want := math.Min(1, 0.25*math.Pow(2, float64(raised)))
			if math.Abs(c-want) > 1e-12 {
				t.Fatalf("after %d silent epochs p = %v, want %v", raised, c, want)
			}
			if c == 1 {
				return // reached the cap as expected
			}
		} else {
			// Packet joined: it will be delivered by a real channel; end
			// the epoch with an event to keep state consistent.
			d2.Observe(channel.Feedback{Slot: int64(1 + raised),
				Event: &channel.Event{Packets: buf}})
			if d2.Pending() != 0 {
				t.Fatal("delivered packet still pending")
			}
			return // delivered before reaching cap; acceptable
		}
	}
	t.Fatal("probability never reached cap nor delivery")
}

// TestSnapshotPMinTracksOverfull: overfull epochs push pmin down.
func TestSnapshotPMinTracksOverfull(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(9))
	ids := make([]channel.PacketID, 200) // >> kappa: first epochs overfull
	for i := range ids {
		ids[i] = channel.PacketID(i)
	}
	d.Inject(0, ids)
	d.Transmitters(0, nil)
	d.Observe(channel.Feedback{Slot: 0, Silent: true}) // activate all at 1/4
	_, _, c0, _ := d.Snapshot()
	if math.Abs(c0-200.0/4) > 1e-9 {
		t.Fatalf("contention after mass activation %v, want 50", c0)
	}
	// 200 active at p=1/4: expected joiners 50 >> kappa=16: overfull epoch.
	now := int64(1)
	buf := d.Transmitters(now, nil)
	if len(buf) <= kappa {
		t.Skipf("unlikely: only %d joiners", len(buf)) // ~impossible; binomial(200,1/4)
	}
	for s := 0; s < kappa; s++ {
		d.Observe(channel.Feedback{Slot: now})
		now++
		if s < kappa-1 {
			got := d.Transmitters(now, nil)
			if len(got) != len(buf) {
				t.Fatalf("joiner set changed mid-epoch: %d -> %d", len(buf), len(got))
			}
		}
	}
	// Epoch ended overfull: probabilities divided by 2.
	_, _, c1, pmin := d.Snapshot()
	if math.Abs(c1-25) > 1e-9 {
		t.Fatalf("contention after overfull = %v, want 25", c1)
	}
	if math.Abs(pmin-0.125) > 1e-12 {
		t.Fatalf("pmin after overfull = %v, want 0.125", pmin)
	}
	if d.Stats().OverfullEpochs != 1 {
		t.Fatalf("overfull epochs = %d", d.Stats().OverfullEpochs)
	}
}

// TestJoinersConstantWithinEpoch: the same set broadcasts in every slot
// of an epoch (the property that makes decoding windows work).
func TestJoinersConstantWithinEpoch(t *testing.T) {
	const kappa = 8
	d := New(kappa, rng.New(21))
	ch := channel.New(kappa, 4*kappa)
	var prev []channel.PacketID
	var prevSlot int64 = -10
	buf := make([]channel.PacketID, 0, 64)
	var nextID channel.PacketID
	for now := int64(0); now < 2000; now++ {
		if now%5 == 0 && now < 1500 {
			d.Inject(now, []channel.PacketID{nextID})
			nextID++
		}
		buf = d.Transmitters(now, buf[:0])
		// Within an epoch (no boundary between prevSlot and now) the set
		// must be identical.
		if prevSlot == now-1 && len(prev) > 0 && len(buf) > 0 {
			same := len(prev) == len(buf)
			if same {
				for i := range prev {
					if prev[i] != buf[i] {
						same = false
						break
					}
				}
			}
			if !same {
				t.Fatalf("slot %d: joiner set changed within epoch", now)
			}
		}
		class, ev := ch.Step(now, buf)
		d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		if class == channel.Silent || ev != nil || (len(buf) > kappa) {
			prev, prevSlot = nil, -10 // epoch boundary (or may be, for overfull)
		} else {
			prev = append(prev[:0], buf...)
			prevSlot = now
		}
	}
}

// TestDeterminism: identical seeds give identical executions.
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64) {
		d := New(32, rng.New(99))
		ch := channel.New(32, 128)
		var events, delivered, lastEvent int64
		buf := make([]channel.PacketID, 0, 64)
		var nextID channel.PacketID
		for now := int64(0); now < 3000; now++ {
			if now%2 == 0 && now < 2500 {
				d.Inject(now, []channel.PacketID{nextID})
				nextID++
			}
			buf = d.Transmitters(now, buf[:0])
			class, ev := ch.Step(now, buf)
			d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
			if ev != nil {
				events++
				delivered += int64(len(ev.Packets))
				lastEvent = now
			}
		}
		return events, delivered, lastEvent
	}
	e1, d1, l1 := run()
	e2, d2, l2 := run()
	if e1 != e2 || d1 != d2 || l1 != l2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, d1, l1, e2, d2, l2)
	}
}

// TestErrorEpochsRare: with kappa reasonably large, error epochs
// (Definition 2) are a vanishing fraction (Lemma 3).
func TestErrorEpochsRare(t *testing.T) {
	const kappa = 64
	d := New(kappa, rng.New(17))
	ch := channel.New(kappa, 4*kappa)
	drive(t, d, ch, 30000, func(now int64) int {
		if now%2 == 0 && now < 25000 {
			return 1
		}
		return 0
	})
	st := d.Stats()
	total := st.Epochs()
	if total == 0 {
		t.Fatal("no epochs")
	}
	frac := float64(st.ErrorEpochs) / float64(total)
	if frac > 0.05 {
		t.Fatalf("error epoch fraction %.4f (%d/%d) too high for kappa=64",
			frac, st.ErrorEpochs, total)
	}
}

// TestStarvationFreedom: every injected packet is eventually delivered
// after arrivals stop.
func TestStarvationFreedom(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(23))
	ch := channel.New(kappa, 4*kappa)
	delivered := drive(t, d, ch, 20000, func(now int64) int {
		if now < 8000 && now%3 == 0 {
			return 2
		}
		return 0
	})
	injected := 0
	for now := int64(0); now < 8000; now++ {
		if now%3 == 0 {
			injected += 2
		}
	}
	if len(delivered) != injected {
		t.Fatalf("delivered %d of %d injected (pending %d)", len(delivered), injected, d.Pending())
	}
}

// TestSlowUpdateFactorStillCorrect: the ablation variant remains a
// correct protocol (conservation, eventual delivery), just slower.
func TestSlowUpdateFactorStillCorrect(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(31), WithUpdateFactor(2))
	ch := channel.New(kappa, 4*kappa)
	delivered := drive(t, d, ch, 6000, func(now int64) int {
		if now == 0 {
			return 200
		}
		return 0
	})
	if len(delivered) != 200 {
		t.Fatalf("slow-update variant delivered %d/200", len(delivered))
	}
}

func TestIdleSlotsCounted(t *testing.T) {
	d := New(8, rng.New(1))
	for now := int64(0); now < 10; now++ {
		d.Transmitters(now, nil)
		d.Observe(channel.Feedback{Slot: now, Silent: true})
	}
	st := d.Stats()
	if st.IdleSlots != 10 {
		t.Fatalf("idle slots = %d, want 10", st.IdleSlots)
	}
	if st.SilentEpochs != 0 {
		t.Fatalf("idle slots misclassified as silent epochs: %d", st.SilentEpochs)
	}
}

func TestNameAndKappa(t *testing.T) {
	d := New(8, rng.New(1))
	if d.Name() != "decodable-backoff" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.Kappa() != 8 {
		t.Fatalf("Kappa = %d", d.Kappa())
	}
}

// TestShiftInt32Limit sets the global shift one epoch short of the
// int32 range that packet locations store bucket bases in: the next
// epoch end in that direction must land on the limit, and the one after
// it must panic naming the limit rather than wrap a base.
func TestShiftInt32Limit(t *testing.T) {
	const kappa = 16
	for _, c := range []struct {
		name  string
		shift func(d *DecodableBackoff) int // one step inside the limit
		fb    channel.Feedback
		slots int // epoch length that ends it with fb
	}{
		// A silent epoch raises the shift; a base is then -shift.
		{"silent", func(*DecodableBackoff) int { return -math.MinInt32 - 1 }, channel.Feedback{Silent: true}, 1},
		// An overfull epoch lowers it; the cap bucket's base is eCap-shift.
		{"overfull", func(d *DecodableBackoff) int { return d.eCap - math.MaxInt32 + 1 }, channel.Feedback{}, kappa},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(kappa, rng.New(1))
			d.Inject(0, []channel.PacketID{0, 1, 2})
			d.shift = c.shift(d)
			now := int64(0)
			epoch := func() {
				d.Transmitters(now, nil)
				for i := 0; i < c.slots; i++ {
					d.Observe(c.fb)
					now++
				}
			}
			epoch()
			if got := d.Stats().Epochs(); got != 1 {
				t.Fatalf("%d epochs ended, want 1", got)
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "int32") {
					t.Fatalf("epoch past the limit: recovered %q, want a panic naming the int32 limit", msg)
				}
			}()
			epoch()
		})
	}
}

func BenchmarkBatch10kKappa64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		const kappa, n = 64, 10000
		d := New(kappa, rng.New(uint64(i)))
		ch := channel.New(kappa, 4*kappa)
		ids := make([]channel.PacketID, n)
		for j := range ids {
			ids[j] = channel.PacketID(j)
		}
		d.Inject(0, ids)
		buf := make([]channel.PacketID, 0, 128)
		for now := int64(0); d.Pending() > 0; now++ {
			buf = d.Transmitters(now, buf[:0])
			class, ev := ch.Step(now, buf)
			d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
		}
	}
}
