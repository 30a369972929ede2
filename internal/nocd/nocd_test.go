package nocd

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// TestGeomSchedule pins the unbounded schedule's shape: round k lasts
// roundScale·2^k slots at probability 2^-k, rounds are monotone, and
// reset rewinds to the densest setting.
func TestGeomSchedule(t *testing.T) {
	var g geomSchedule
	g.reset()
	for k := 0; k < 5; k++ {
		want := math.Ldexp(1, -k)
		dwell := int64(roundScale) << k
		for i := int64(0); i < dwell; i++ {
			if p := g.advance(); p != want {
				t.Fatalf("round %d slot %d: p = %g, want %g", k, i, p, want)
			}
		}
	}
	g.reset()
	if p := g.advance(); p != 1 {
		t.Fatalf("after reset: p = %g, want 1", p)
	}
}

// TestSawSchedule pins the robust schedule's sawtooth: phase i sweeps
// scales 0…i, dwelling roundScale·2^j slots at probability 2^-j, so
// every density recurs in every phase.
func TestSawSchedule(t *testing.T) {
	var s sawSchedule
	s.reset()
	for phase := 0; phase < 4; phase++ {
		for scale := 0; scale <= phase; scale++ {
			want := math.Ldexp(1, -scale)
			dwell := int64(roundScale) << scale
			for i := int64(0); i < dwell; i++ {
				if p := s.advance(); p != want {
					t.Fatalf("phase %d scale %d slot %d: p = %g, want %g", phase, scale, i, p, want)
				}
			}
		}
	}
	s.reset()
	if p := s.advance(); p != 1 {
		t.Fatalf("after reset: p = %g, want 1", p)
	}
}

// TestScheduleOverflowCap drives the shift past maxShift and checks the
// dwell length stops growing instead of overflowing.
func TestScheduleOverflowCap(t *testing.T) {
	g := geomSchedule{round: maxShift, left: 0}
	if g.advance(); g.round != maxShift {
		t.Fatalf("round grew past maxShift: %d", g.round)
	}
	if g.left < 0 || g.left != (roundScale<<maxShift)-1 {
		t.Fatalf("dwell overflowed: left = %d", g.left)
	}
	s := sawSchedule{phase: maxShift + 3, scale: maxShift + 2, left: 0}
	s.advance()
	if s.left < 0 {
		t.Fatalf("saw dwell overflowed: left = %d", s.left)
	}
}

// TestSchemeResetOnEmpty checks the busy-period rewind: when the last
// pending packet leaves, the schedule returns to its densest setting,
// so the next busy period starts at probability 1.
func TestSchemeResetOnEmpty(t *testing.T) {
	s := NewUnbounded(rng.New(1))
	s.Inject(0, []channel.PacketID{7})
	// Burn schedule state past round 0.
	for now := int64(1); now <= 3*roundScale; now++ {
		s.Transmitters(now, nil)
		s.Observe(channel.Feedback{Slot: now, Silent: true})
	}
	if g := s.sched.(*geomSchedule); g.round == 0 {
		t.Fatalf("schedule never advanced past round 0")
	}
	// Deliver the lone packet; the schedule must rewind.
	s.Observe(channel.Feedback{Slot: 100, Event: &channel.Event{
		Slot: 100, WindowStart: 100, Packets: []channel.PacketID{7}}})
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after delivery", s.Pending())
	}
	if g := s.sched.(*geomSchedule); g.round != 0 || g.left != roundScale {
		t.Fatalf("schedule not rewound: round=%d left=%d", g.round, g.left)
	}
}

// TestSchemeDuplicateInjectPanics checks the duplicate-injection guard.
func TestSchemeDuplicateInjectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate injection did not panic")
		}
	}()
	s := NewRobust(rng.New(1))
	s.Inject(0, []channel.PacketID{3})
	s.Inject(1, []channel.PacketID{3})
}

// TestSchemeEmptySlotTouchesNothing checks that slots with nothing
// pending consume neither the schedule nor the RNG stream — the
// alignment the engine's empty-stretch fast-forwarding relies on.
func TestSchemeEmptySlotTouchesNothing(t *testing.T) {
	idle := NewUnbounded(rng.New(5))
	busy := NewUnbounded(rng.New(5))
	// idle burns 1000 empty slots before its first packet; busy gets the
	// packet immediately.  Their subsequent sampling must agree.
	for now := int64(1); now <= 1000; now++ {
		if tx := idle.Transmitters(now, nil); len(tx) != 0 {
			t.Fatalf("slot %d: empty scheme transmitted %v", now, tx)
		}
		idle.Observe(channel.Feedback{Slot: now, Silent: true})
	}
	ids := []channel.PacketID{1, 2, 3, 4, 5}
	idle.Inject(1000, ids)
	busy.Inject(1000, ids)
	for now := int64(1001); now < 1101; now++ {
		txI := idle.Transmitters(now, nil)
		txB := busy.Transmitters(now, nil)
		if len(txI) != len(txB) {
			t.Fatalf("slot %d: idle-prefixed scheme diverged: %v vs %v", now, txI, txB)
		}
		for i := range txI {
			if txI[i] != txB[i] {
				t.Fatalf("slot %d: idle-prefixed scheme diverged: %v vs %v", now, txI, txB)
			}
		}
		idle.Observe(channel.Feedback{Slot: now, Silent: len(txI) == 0})
		busy.Observe(channel.Feedback{Slot: now, Silent: len(txB) == 0})
	}
}
