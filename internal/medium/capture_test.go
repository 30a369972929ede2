package medium

import (
	"fmt"
	"testing"

	"repro/internal/channel"
)

func TestCaptureSemantics(t *testing.T) {
	m := NewCapture(3)
	if m.Kappa() != 3 || m.Name() != "capture" {
		t.Fatalf("identity wrong: κ=%d name=%q", m.Kappa(), m.Name())
	}
	var fb channel.Feedback
	// Silent slot.
	class, ev := m.Step(0, nil)
	m.Feedback(&fb)
	if class != channel.Silent || ev != nil || !fb.Silent || fb.Collision {
		t.Fatalf("empty slot: %v %v fb %+v", class, ev, fb)
	}
	// At or under the threshold: every packet delivers, sorted by ID.
	class, ev = m.Step(1, []channel.PacketID{9, 2, 5})
	m.Feedback(&fb)
	if class != channel.Good || ev == nil || ev.Slot != 1 || ev.WindowStart != 1 {
		t.Fatalf("threshold slot: %v %+v", class, ev)
	}
	if len(ev.Packets) != 3 || ev.Packets[0] != 2 || ev.Packets[1] != 5 || ev.Packets[2] != 9 {
		t.Fatalf("event packets not sorted: %v", ev.Packets)
	}
	if fb.Silent || fb.Collision || fb.Event != ev {
		t.Fatalf("good-slot feedback %+v", fb)
	}
	// One transmitter too many destroys the slot — no window banks it,
	// and the coded-style feedback carries no collision flag.
	class, ev = m.Step(2, []channel.PacketID{1, 2, 3, 4})
	m.Feedback(&fb)
	if class != channel.Bad || ev != nil || fb.Silent || fb.Collision || fb.Event != nil {
		t.Fatalf("destroyed slot: %v %v fb %+v", class, ev, fb)
	}
	// The colliders carry nothing over: a later quiet slot decodes fresh.
	class, ev = m.Step(3, []channel.PacketID{1, 2})
	if class != channel.Good || ev == nil || len(ev.Packets) != 2 {
		t.Fatalf("post-collision slot: %v %v", class, ev)
	}
	st := m.Stats()
	if st.SilentSlots != 1 || st.GoodSlots != 2 || st.BadSlots != 1 ||
		st.Events != 2 || st.Delivered != 5 || st.JammedSlots != 0 {
		t.Fatalf("stats: %+v", st)
	}
	m.AddSilent(4)
	if m.Stats().SilentSlots != 5 {
		t.Fatal("AddSilent not accounted")
	}
	m.Reset()
	if m.Stats() != (channel.Stats{}) {
		t.Fatal("Reset left counters")
	}
}

func TestCaptureKappaOneIsClassical(t *testing.T) {
	// κ=1 degenerates to the classical collision channel (modulo the
	// feedback alphabet): singletons deliver, anything more is lost.
	m := NewCapture(1)
	if class, _ := m.Step(0, []channel.PacketID{4}); class != channel.Good {
		t.Fatal("singleton not delivered at κ=1")
	}
	if class, _ := m.Step(1, []channel.PacketID{4, 5}); class != channel.Bad {
		t.Fatal("pair not destroyed at κ=1")
	}
}

func TestCaptureStepRepeat(t *testing.T) {
	m := NewCapture(2)
	m.Step(0, []channel.PacketID{1, 2, 3})
	if !m.StepRepeat(1) {
		t.Fatal("StepRepeat refused after a bad slot")
	}
	var fb channel.Feedback
	m.Feedback(&fb)
	if fb.Slot != 1 || fb.Silent || fb.Event != nil {
		t.Fatalf("repeated-slot feedback %+v", fb)
	}
	if st := m.Stats(); st.BadSlots != 2 {
		t.Fatalf("repeat not counted: %+v", st)
	}
	// A good slot disarms the repeater.
	m.Step(2, []channel.PacketID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("StepRepeat after a good slot did not panic")
		}
	}()
	m.StepRepeat(3)
}

func TestCaptureDuplicatePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: duplicate transmitters not rejected", name)
			}
		}()
		f()
	}
	mustPanic("decodable slot", func() {
		NewCapture(4).Step(0, []channel.PacketID{5, 5})
	})
	mustPanic("destroyed slot", func() {
		NewCapture(1).Step(0, []channel.PacketID{5, 6, 5})
	})
	mustPanic("zero kappa", func() { NewCapture(0) })
}

func TestCaptureEventReuseIsSafe(t *testing.T) {
	m := NewCapture(2)
	_, ev1 := m.Step(0, []channel.PacketID{1})
	if ev1.Packets[0] != 1 {
		t.Fatal("first event wrong")
	}
	_, ev2 := m.Step(1, []channel.PacketID{2})
	if ev2.Packets[0] != 2 || ev1 != ev2 {
		t.Fatal("event storage not reused")
	}
}

// BenchmarkCaptureStep times the capture medium on slots of 1 (a
// capture), κ (the largest slot still captured) and 4κ transmitters (a
// destroyed slot, still checked for duplicates), κ = 8.
func BenchmarkCaptureStep(b *testing.B) {
	const kappa = 8
	for _, n := range []int{1, kappa, 4 * kappa} {
		b.Run(fmt.Sprintf("txs=%d", n), func(b *testing.B) {
			m := NewCapture(kappa)
			txs := make([]channel.PacketID, n)
			var fb channel.Feedback
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range txs {
					txs[j] = channel.PacketID(i*n + n - 1 - j) // fresh, descending
				}
				m.Step(int64(i), txs)
				m.Feedback(&fb)
			}
		})
	}
}
