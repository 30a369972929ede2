package medium

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/channel"
)

func TestNewDescriptors(t *testing.T) {
	for _, desc := range Models {
		m, err := New(desc, 8, 32)
		if err != nil {
			t.Fatalf("New(%q): %v", desc, err)
		}
		if m == nil {
			t.Fatalf("New(%q) returned nil medium", desc)
		}
	}
	if m, err := New("", 8, 32); err != nil || m.Name() != "coded" {
		t.Fatalf("empty descriptor: %v, %v", m, err)
	}
	if _, err := New("quantum", 8, 32); err == nil {
		t.Fatal("unknown descriptor accepted")
	}
}

func TestCodedMirrorsChannel(t *testing.T) {
	m := NewCoded(2, 8)
	ch := channel.New(2, 8)
	var fb channel.Feedback
	schedule := [][]channel.PacketID{
		nil, {1}, {1, 2}, {1, 2, 3}, {2}, nil, {3},
	}
	for now, txs := range schedule {
		wc, we := ch.Step(int64(now), txs)
		gc, ge := m.Step(int64(now), txs)
		if gc != wc || (ge == nil) != (we == nil) {
			t.Fatalf("slot %d: class %v/%v ev %v/%v", now, gc, wc, ge, we)
		}
		m.Feedback(&fb)
		if fb.Slot != int64(now) || fb.Silent != (wc == channel.Silent) ||
			(fb.Event == nil) != (we == nil) || fb.Collision {
			t.Fatalf("slot %d: feedback %+v vs class %v", now, fb, wc)
		}
	}
	if m.Stats() != ch.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", m.Stats(), ch.Stats())
	}
	if m.Kappa() != 2 || m.Name() != "coded" {
		t.Fatalf("identity wrong: κ=%d name=%q", m.Kappa(), m.Name())
	}
	m.AddSilent(5)
	if m.Stats().SilentSlots != ch.Stats().SilentSlots+5 {
		t.Fatal("AddSilent not accounted")
	}
	m.Reset()
	if m.Stats() != (channel.Stats{}) || m.Channel().PendingPackets() != 0 {
		t.Fatalf("Reset left state: %+v", m.Stats())
	}
}

func TestClassicalSemantics(t *testing.T) {
	m := NewClassical(CDTernary)
	if m.Kappa() != 1 || m.Name() != "classical:ternary" {
		t.Fatalf("identity wrong: κ=%d name=%q", m.Kappa(), m.Name())
	}
	// Silent slot.
	class, ev := m.Step(0, nil)
	if class != channel.Silent || ev != nil {
		t.Fatalf("empty slot: %v %v", class, ev)
	}
	// Success: exactly one transmitter delivers immediately.
	class, ev = m.Step(1, []channel.PacketID{7})
	if class != channel.Good || ev == nil || ev.Size() != 1 || ev.Packets[0] != 7 ||
		ev.Slot != 1 || ev.WindowStart != 1 {
		t.Fatalf("singleton slot: %v %+v", class, ev)
	}
	// Collision: nothing delivered, ever — no coding gain.
	class, ev = m.Step(2, []channel.PacketID{8, 9})
	if class != channel.Bad || ev != nil {
		t.Fatalf("collision slot: %v %v", class, ev)
	}
	// The colliders never decode later either (no window accumulation).
	class, ev = m.Step(3, []channel.PacketID{8})
	if class != channel.Good || ev == nil || ev.Packets[0] != 8 {
		t.Fatalf("retry slot: %v %v", class, ev)
	}
	st := m.Stats()
	if st.SilentSlots != 1 || st.GoodSlots != 2 || st.BadSlots != 1 ||
		st.Events != 2 || st.Delivered != 2 {
		t.Fatalf("stats: %+v", st)
	}
	m.Reset()
	if m.Stats() != (channel.Stats{}) {
		t.Fatal("Reset left counters")
	}
}

func TestClassicalEventReuseIsSafe(t *testing.T) {
	// The event storage is reused across slots: the previous event's
	// contents are overwritten by the next success, which consumers must
	// tolerate (they may not retain it past the slot).
	m := NewClassical(CDNone)
	_, ev1 := m.Step(0, []channel.PacketID{1})
	if ev1.Packets[0] != 1 {
		t.Fatal("first event wrong")
	}
	_, ev2 := m.Step(1, []channel.PacketID{2})
	if ev2.Packets[0] != 2 || ev1 != ev2 {
		t.Fatal("event storage not reused")
	}
}

func TestCollisionDetectionMasking(t *testing.T) {
	type slotWant struct {
		txs       []channel.PacketID
		silent    bool
		collision bool
		event     bool
	}
	cases := map[CD][]slotWant{
		// No sensing: silence masked, collisions inaudible.
		CDNone: {
			{nil, false, false, false},
			{[]channel.PacketID{1}, false, false, true},
			{[]channel.PacketID{1, 2}, false, false, false},
		},
		// Carrier sensing: idle audible, collision vs success not.
		CDBinary: {
			{nil, true, false, false},
			{[]channel.PacketID{1}, false, false, true},
			{[]channel.PacketID{1, 2}, false, false, false},
		},
		// Full collision detection.
		CDTernary: {
			{nil, true, false, false},
			{[]channel.PacketID{1}, false, false, true},
			{[]channel.PacketID{1, 2}, false, true, false},
		},
	}
	var fb channel.Feedback
	for cd, slots := range cases {
		m := NewClassical(cd)
		for i, want := range slots {
			m.Step(int64(i), want.txs)
			m.Feedback(&fb)
			if fb.Silent != want.silent || fb.Collision != want.collision ||
				(fb.Event != nil) != want.event {
				t.Errorf("%v slot %d: feedback %+v, want %+v", cd, i, fb, want)
			}
		}
	}
}

func TestDuplicateTransmittersPanic(t *testing.T) {
	// The coded detector's invariant — one device cannot send two
	// packets in one slot — must hold on slots it never sees: classical
	// collisions and jammed slots.
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: duplicate transmitters not rejected", name)
			}
		}()
		f()
	}
	mustPanic("classical collision", func() {
		NewClassical(CDTernary).Step(0, []channel.PacketID{5, 5})
	})
	mustPanic("jammed slot", func() {
		m := JamAdversary(NewCoded(4, 0), adversary.NewBurstGap(1, 0), 1)
		m.Step(0, []channel.PacketID{5, 5})
	})
	big := make([]channel.PacketID, 40)
	for i := range big {
		big[i] = channel.PacketID(i % 39) // one duplicate, beyond the scan cutoff
	}
	mustPanic("large classical collision", func() {
		NewClassical(CDNone).Step(0, big)
	})
}

// TestDuplicateCheckMemoryBounded drives each medium that validates
// transmitters itself through a long run of large slots, every one
// naming fresh packet IDs, as a long classical drain does.  Validation
// memory must stay bounded by the largest slot — not grow with every ID
// ever seen — and a planted duplicate must still panic afterwards.
func TestDuplicateCheckMemoryBounded(t *testing.T) {
	const slotSize, slots = 64, 20_000
	media := map[string]func() (Medium, *dupCheck){
		"classical": func() (Medium, *dupCheck) { m := NewClassical(CDTernary); return m, &m.dup },
		"capture":   func() (Medium, *dupCheck) { m := NewCapture(4); return m, &m.dup },
		"jammed": func() (Medium, *dupCheck) {
			m := JamAdversary(NewCoded(4, 0), adversary.NewBurstGap(1, 0), 1).(*Jammed)
			return m, &m.dup
		},
	}
	for name, build := range media {
		m, dup := build()
		txs := make([]channel.PacketID, slotSize)
		step := func(now int64) {
			for i := range txs {
				txs[i] = channel.PacketID(now*slotSize + int64(i))
			}
			m.Step(now, txs)
		}
		step(0) // size the scratch
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for now := int64(1); now < slots; now++ {
			step(now)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
			t.Errorf("%s: %d slots of fresh IDs allocated %d bytes validating them", name, slots, grown)
		}
		if c := cap(dup.scratch); c > 2*slotSize {
			t.Errorf("%s: validation scratch holds %d IDs, largest slot was %d", name, c, slotSize)
		}
		txs[slotSize-1] = txs[0]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: planted duplicate not rejected after the long run", name)
				}
			}()
			m.Step(slots, txs)
		}()
	}
}

func TestParseCD(t *testing.T) {
	for _, name := range []string{"none", "binary", "ternary"} {
		cd, err := ParseCD(name)
		if err != nil || cd.String() != name {
			t.Fatalf("ParseCD(%q) = %v, %v", name, cd, err)
		}
	}
	if _, err := ParseCD("quaternary"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestJammedSlotsNeverGood(t *testing.T) {
	// always-on jammer: a burst with no gap
	m := JamAdversary(NewCoded(4, 0), adversary.NewBurstGap(1, 0), 1)
	class, ev := m.Step(0, []channel.PacketID{1})
	if class != channel.Bad || ev != nil {
		t.Fatalf("jammed slot class %v ev %v", class, ev)
	}
	// An empty jammed slot is audibly busy, not silent.
	var fb channel.Feedback
	class, _ = m.Step(1, nil)
	m.Feedback(&fb)
	if class != channel.Bad || fb.Silent {
		t.Fatalf("empty jammed slot class %v fb %+v, want Bad and audible", class, fb)
	}
	st := m.Stats()
	if st.JammedSlots != 2 || st.BadSlots != 2 || st.SilentSlots != 0 {
		t.Fatalf("jam accounting wrong: %+v", st)
	}
}

func TestJamComposesOverCleanSlots(t *testing.T) {
	// Duty-cycled jammer: slots 0-1 of every 4 jammed.  Clean slots pass
	// through to the inner detector, which still decodes.
	m := JamAdversary(NewCoded(4, 0), adversary.NewBurstGap(2, 2), 1)
	if m.Kappa() != 4 {
		t.Fatalf("kappa %d", m.Kappa())
	}
	var fb channel.Feedback
	m.Step(0, []channel.PacketID{1, 2}) // jammed
	m.Step(1, []channel.PacketID{1, 2}) // jammed
	m.Step(2, []channel.PacketID{1, 2}) // clean good
	m.Feedback(&fb)
	if fb.Silent || fb.Event != nil {
		t.Fatalf("clean good slot feedback %+v", fb)
	}
	_, ev := m.Step(3, []channel.PacketID{1, 2}) // clean good → event
	if ev == nil || ev.Size() != 2 {
		t.Fatalf("clean window after jamming failed: %+v", ev)
	}
	st := m.Stats()
	if st.JammedSlots != 2 || st.BadSlots != 2 || st.GoodSlots != 2 ||
		st.Events != 1 || st.Delivered != 2 {
		t.Fatalf("composed stats wrong: %+v", st)
	}
	m.Reset()
	if m.Stats() != (channel.Stats{}) {
		t.Fatal("Reset left counters")
	}
}

func TestJamDecisionsAreSlotKeyed(t *testing.T) {
	// The same (seed, slot) must yield the same decision regardless of
	// which slots were stepped before it — the property that keeps
	// jammer randomness aligned across engine fast-forwarding.
	decide := func(slots []int64) map[int64]bool {
		m := JamAdversary(NewCoded(1, 0), adversary.NewRandom(0.5), 7)
		out := make(map[int64]bool)
		for _, s := range slots {
			class, _ := m.Step(s, nil)
			out[s] = class == channel.Bad
		}
		return out
	}
	dense := decide([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	sparse := decide([]int64{3, 7, 12})
	for s, want := range sparse {
		if dense[s] != want {
			t.Fatalf("slot %d: dense=%v sparse=%v", s, dense[s], want)
		}
	}
	var any bool
	for _, v := range dense {
		any = any || v
	}
	if !any {
		t.Fatal("rate-0.5 jammer never fired in 13 slots")
	}
}

func TestJamNilJammerPassesThrough(t *testing.T) {
	inner := NewClassical(CDNone)
	if JamAdversary(inner, nil, 1) != Medium(inner) {
		t.Fatal("nil jammer should return the inner medium unchanged")
	}
}

func TestJamTernaryClassicalReportsCollision(t *testing.T) {
	// To a ternary-CD device, jamming energy sounds like a collision.
	m := JamAdversary(NewClassical(CDTernary), adversary.NewBurstGap(1, 0), 1)
	var fb channel.Feedback
	m.Step(0, nil)
	m.Feedback(&fb)
	if !fb.Collision || fb.Silent {
		t.Fatalf("jammed ternary slot feedback %+v, want collision", fb)
	}
	// A binary-CD device cannot tell: no collision flag.
	m = JamAdversary(NewClassical(CDBinary), adversary.NewBurstGap(1, 0), 1)
	m.Step(0, nil)
	m.Feedback(&fb)
	if fb.Collision {
		t.Fatalf("jammed binary slot feedback %+v, want no collision flag", fb)
	}
}

func TestJamAdversaryForwardsFeedbackToObserve(t *testing.T) {
	// The wrapper is the adaptive jammer's ear: after three busy
	// event-free slots (κ=4 collisions pending a window), the reactive
	// adversary must arm and spoil the following slots.
	m := JamAdversary(NewCoded(4, 0), adversary.NewReactive(3, 2), 1)
	var fb channel.Feedback
	step := func(now int64, txs ...channel.PacketID) channel.SlotClass {
		class, _ := m.Step(now, txs)
		m.Feedback(&fb)
		return class
	}
	// Three good-but-undecoded slots: two fresh packets per slot keep the
	// window filling (more packets than good slots) — busy, no event.
	for now := int64(0); now < 3; now++ {
		if class := step(now, channel.PacketID(2*now+1), channel.PacketID(2*now+2)); class != channel.Good {
			t.Fatalf("slot %d class %v, want Good", now, class)
		}
	}
	// Armed: slots 3-4 jammed regardless of transmitters.
	if class := step(3, 1, 2); class != channel.Bad {
		t.Fatal("reactive adversary did not jam after its trigger")
	}
	if fb.Silent {
		t.Fatal("jammed slot audible as silence")
	}
	if class := step(4); class != channel.Bad {
		t.Fatal("burst second slot not jammed")
	}
	// Burst over: an empty slot is silent again.
	if class := step(5); class != channel.Silent {
		t.Fatal("jam outlived its burst")
	}
	st := m.Stats()
	if st.JammedSlots != 2 || st.BadSlots != 2 {
		t.Fatalf("jam accounting %+v", st)
	}
	// Reset must clear the adversary's adaptive state with the medium's.
	m.Reset()
	if m.Stats() != (channel.Stats{}) {
		t.Fatal("Reset left counters")
	}
	if class := step(0, 1, 2); class != channel.Good {
		t.Fatal("Reset left the adversary armed")
	}
}

func TestAdaptiveJamDecisionsGapInvariant(t *testing.T) {
	// The adaptive analogue of TestJamDecisionsAreSlotKeyed: stepping the
	// idle slots (observed as silence) and skipping them (a feedback gap)
	// must produce the same jam pattern — the property the engine's
	// fast-forwarding relies on.
	decide := func(slots []int64, txsAt map[int64][]channel.PacketID) map[int64]bool {
		m := JamAdversary(NewCoded(4, 0), adversary.NewReactive(2, 3), 9)
		var fb channel.Feedback
		out := make(map[int64]bool)
		for _, s := range slots {
			class, _ := m.Step(s, txsAt[s])
			m.Feedback(&fb)
			out[s] = class == channel.Bad
		}
		return out
	}
	// Fresh packet pairs keep the decoding window filling without an
	// event: slots 0, 1 arm slots 2-4; slots 5-9 idle; busy again at
	// 10, 11 re-arms 12-14.
	txsAt := map[int64][]channel.PacketID{
		0: {1, 2}, 1: {3, 4}, 10: {5, 6}, 11: {7, 8},
	}
	dense := decide([]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, txsAt)
	sparse := decide([]int64{0, 1, 2, 3, 4, 10, 11, 12, 13, 14}, txsAt)
	for s, want := range sparse {
		if dense[s] != want {
			t.Fatalf("slot %d: dense=%v sparse=%v", s, dense[s], want)
		}
	}
	for _, s := range []int64{2, 3, 4, 12, 13, 14} {
		if !dense[s] {
			t.Fatalf("slot %d expected jammed", s)
		}
	}
}
