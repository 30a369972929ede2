package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// checkInvariants verifies the structural invariants of the bucketed
// population after every step:
//
//   - location map is exactly the union of buckets, joiners, inactive;
//   - every location reference is accurate;
//   - buckets are sorted by base, non-empty between epochs, and no
//     effective exponent exceeds the cap;
//   - all probabilities are in (0, 1];
//   - Pending() equals the population size.
func checkInvariants(t *testing.T, d *DecodableBackoff) {
	t.Helper()
	total := 0
	prevBase := math.MinInt64
	for _, b := range d.buckets {
		if b.base <= prevBase {
			t.Fatalf("buckets out of order: %d after %d", b.base, prevBase)
		}
		prevBase = b.base
		if i, ok := d.bucketAt(b.base); !ok || d.buckets[i] != b {
			t.Fatalf("bucket index desynced at base %d", b.base)
		}
		if e := b.base + d.shift; e > d.eCap {
			t.Fatalf("bucket exceeds probability cap: effective exponent %d > %d", e, d.eCap)
		}
		p := d.prob(b.base + d.shift)
		if p <= 0 || p > 1 {
			t.Fatalf("bucket probability %v out of (0,1]", p)
		}
		for i, id := range b.ids {
			l, ok := d.loc.Get(int64(id))
			if !ok || !l.inBucket() || int(l.base) != b.base || l.index() != i {
				t.Fatalf("packet %d bucket location desynced: %+v", id, l)
			}
			total++
		}
	}
	for i, j := range d.joiners {
		l, ok := d.loc.Get(int64(j.id))
		if !ok || !l.inList(joinerList) || l.index() != i {
			t.Fatalf("joiner %d location desynced: %+v", j.id, l)
		}
		total++
	}
	for i, id := range d.inactive {
		l, ok := d.loc.Get(int64(id))
		if !ok || !l.inList(inactiveList) || l.index() != i {
			t.Fatalf("inactive %d location desynced: %+v", id, l)
		}
		total++
	}
	if total != d.loc.Len() {
		t.Fatalf("location index has %d entries, population has %d", d.loc.Len(), total)
	}
	if d.Pending() != total {
		t.Fatalf("Pending() = %d, population = %d", d.Pending(), total)
	}
	if d.active != total-len(d.joiners)-len(d.inactive) {
		t.Fatalf("active counter desynced: %d", d.active)
	}
}

// TestInvariantsUnderRandomWorkload drives DBA through bursty arrivals,
// overfull cascades, deliveries, and cap merges, checking every
// structural invariant after every slot.
func TestInvariantsUnderRandomWorkload(t *testing.T) {
	for _, kappa := range []int{6, 16, 64} {
		t.Run(fmt.Sprintf("kappa=%d", kappa), func(t *testing.T) {
			r := rng.New(uint64(kappa) * 97)
			d := New(kappa, rng.New(uint64(kappa)))
			ch := channel.New(kappa, 4*kappa)
			var nextID channel.PacketID
			buf := make([]channel.PacketID, 0, 256)
			for now := int64(0); now < 4000; now++ {
				switch {
				case now == 0:
					ids := make([]channel.PacketID, 300) // force overfull cascades
					for i := range ids {
						ids[i] = nextID
						nextID++
					}
					d.Inject(now, ids)
				case r.Bernoulli(0.3):
					d.Inject(now, []channel.PacketID{nextID})
					nextID++
				}
				buf = d.Transmitters(now, buf[:0])
				class, ev := ch.Step(now, buf)
				d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
				checkInvariants(t, d)
			}
		})
	}
}

// TestInvariantsWithAblations covers the variant code paths (cap merges
// with p0=1, floor-less timid starts, no admission control).
func TestInvariantsWithAblations(t *testing.T) {
	variants := map[string][]Option{
		"greedy":      {WithInitialProb(1)},
		"timid":       {WithInitialProb(1e-4)},
		"noadmission": {WithoutAdmissionControl()},
		"slow":        {WithUpdateFactor(1.5)},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			const kappa = 16
			r := rng.New(7)
			d := New(kappa, rng.New(8), opts...)
			ch := channel.New(kappa, 4*kappa)
			var nextID channel.PacketID
			buf := make([]channel.PacketID, 0, 64)
			for now := int64(0); now < 2000; now++ {
				if r.Bernoulli(0.5) {
					d.Inject(now, []channel.PacketID{nextID})
					nextID++
				}
				buf = d.Transmitters(now, buf[:0])
				class, ev := ch.Step(now, buf)
				d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
				checkInvariants(t, d)
			}
		})
	}
}

// TestContentionMatchesBruteForce cross-checks the bucketed contention
// computation against a per-packet sum.
func TestContentionMatchesBruteForce(t *testing.T) {
	const kappa = 16
	r := rng.New(77)
	d := New(kappa, rng.New(78))
	ch := channel.New(kappa, 4*kappa)
	var nextID channel.PacketID
	buf := make([]channel.PacketID, 0, 64)
	for now := int64(0); now < 1500; now++ {
		if r.Bernoulli(0.4) {
			d.Inject(now, []channel.PacketID{nextID})
			nextID++
		}
		buf = d.Transmitters(now, buf[:0])
		class, ev := ch.Step(now, buf)
		d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})

		// Brute force: sum probabilities over buckets and joiners.
		var want float64
		wantMin := 1.0
		count := 0
		for _, b := range d.buckets {
			p := d.prob(b.base + d.shift)
			want += p * float64(len(b.ids))
			if len(b.ids) > 0 && p < wantMin {
				wantMin = p
			}
			count += len(b.ids)
		}
		for _, j := range d.joiners {
			p := d.prob(j.base + d.shift)
			want += p
			if p < wantMin {
				wantMin = p
			}
			count++
		}
		got, gotMin := d.contention()
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("slot %d: contention %v != brute force %v", now, got, want)
		}
		if count > 0 && math.Abs(gotMin-wantMin) > 1e-12 {
			t.Fatalf("slot %d: pmin %v != brute force %v", now, gotMin, wantMin)
		}
	}
}

// TestCapMergeKeepsProbabilityAtOne: repeated silent feedback pushes all
// probabilities to the cap and merged buckets stay canonical.
func TestCapMergeKeepsProbabilityAtOne(t *testing.T) {
	const kappa = 16 // factor 2, p0 = 1/4, cap at e=2
	d := New(kappa, rng.New(5))
	d.Inject(0, []channel.PacketID{1, 2, 3})
	now := int64(0)
	// Feed silence whenever the protocol does not transmit; deliver
	// whenever it does.  Eventually probabilities cap at 1 or packets
	// leave; either way invariants must hold throughout.
	for i := 0; i < 50 && d.Pending() > 0; i++ {
		buf := d.Transmitters(now, nil)
		if len(buf) == 0 {
			d.Observe(channel.Feedback{Slot: now, Silent: true})
		} else {
			d.Observe(channel.Feedback{Slot: now,
				Event: &channel.Event{Slot: now, Packets: buf}})
		}
		checkInvariants(t, d)
		now++
	}
	if d.Pending() != 0 {
		t.Fatalf("packets stuck at %d pending", d.Pending())
	}
}

// TestEventDeliveringNonJoiners exercises the defensive delivery paths:
// an event naming packets that are in buckets or inactive (possible only
// with exotic channel configurations) must still remove them cleanly.
func TestEventDeliveringNonJoiners(t *testing.T) {
	const kappa = 16
	d := New(kappa, rng.New(3))
	d.Inject(0, []channel.PacketID{1, 2, 3})
	d.Transmitters(0, nil)
	d.Observe(channel.Feedback{Slot: 0, Silent: true}) // activate all
	// Start an epoch so some packets may be joiners, then deliver a mix.
	d.Transmitters(1, nil)
	d.Observe(channel.Feedback{Slot: 1,
		Event: &channel.Event{Slot: 1, Packets: []channel.PacketID{1, 2, 3}}})
	checkInvariants(t, d)
	if d.Pending() != 0 {
		t.Fatalf("pending %d after delivering all", d.Pending())
	}
	if d.Stats().Delivered != 3 {
		t.Fatalf("delivered %d", d.Stats().Delivered)
	}
}

// TestEventDeliveringInactive: a delivery naming an inactive packet (it
// never transmitted, so only a buggy or exotic channel would do this)
// must not corrupt state.
func TestEventDeliveringInactive(t *testing.T) {
	d := New(16, rng.New(4))
	d.Inject(0, []channel.PacketID{7, 8})
	d.Transmitters(0, nil)
	// Event delivered while 7, 8 still inactive.
	d.Observe(channel.Feedback{Slot: 0,
		Event: &channel.Event{Slot: 0, Packets: []channel.PacketID{7}}})
	checkInvariants(t, d)
	if d.Pending() != 1 {
		t.Fatalf("pending %d, want 1", d.Pending())
	}
}

// TestEventForUnknownPacket: deliveries for packets the protocol does
// not own are ignored (multi-protocol channel sharing).
func TestEventForUnknownPacket(t *testing.T) {
	d := New(16, rng.New(5))
	d.Inject(0, []channel.PacketID{1})
	d.Transmitters(0, nil)
	d.Observe(channel.Feedback{Slot: 0,
		Event: &channel.Event{Slot: 0, Packets: []channel.PacketID{99}}})
	checkInvariants(t, d)
	if d.Pending() != 1 {
		t.Fatalf("pending %d, want 1", d.Pending())
	}
}

// TestObserveWithoutEpoch: feedback outside any epoch (engine fast-
// forward) is absorbed without state corruption.
func TestObserveWithoutEpoch(t *testing.T) {
	d := New(16, rng.New(6))
	d.Observe(channel.Feedback{Slot: 0, Silent: true})
	if d.Stats().IdleSlots != 1 {
		t.Fatalf("idle slots %d", d.Stats().IdleSlots)
	}
	d.Inject(1, []channel.PacketID{1})
	d.Observe(channel.Feedback{Slot: 1, Silent: true}) // pending>0, no epoch
	checkInvariants(t, d)
}

// TestProbCapAndFloor covers the probability clamp arithmetic.
func TestProbCapAndFloor(t *testing.T) {
	d := New(16, rng.New(7)) // p0=1/4, factor=2, eCap=2
	if p := d.prob(2); p != 1 {
		t.Fatalf("prob at cap = %v", p)
	}
	if p := d.prob(5); p != 1 {
		t.Fatalf("prob beyond cap = %v", p)
	}
	if p := d.prob(0); math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("prob at 0 = %v", p)
	}
	if p := d.prob(-2); math.Abs(p-0.0625) > 1e-12 {
		t.Fatalf("prob at -2 = %v", p)
	}
	// A variant whose p0·f^e crosses 1 between integer exponents:
	// eCap = ceil(-ln(0.3)/ln(3)) = 2, so prob(1) = 0.9 and prob(2) = 1.
	d2 := New(16, rng.New(8), WithInitialProb(0.3), WithUpdateFactor(3))
	if p := d2.prob(1); math.Abs(p-0.9) > 1e-12 {
		t.Fatalf("prob(1) = %v, want 0.9", p)
	}
	if p := d2.prob(2); p != 1 {
		t.Fatalf("prob(2) = %v, want 1 (capped)", p)
	}
}
