package channel

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func ids(vs ...PacketID) []PacketID { return vs }

func TestSlotClassification(t *testing.T) {
	c := New(3, 0)
	if class, _ := c.Step(0, nil); class != Silent {
		t.Fatalf("empty slot class %v", class)
	}
	if class, _ := c.Step(1, ids(1)); class != Good {
		t.Fatalf("single tx class %v", class)
	}
	if class, _ := c.Step(2, ids(2, 3, 4)); class != Good {
		t.Fatalf("kappa txs class %v", class)
	}
	if class, _ := c.Step(3, ids(5, 6, 7, 8)); class != Bad {
		t.Fatalf("kappa+1 txs class %v", class)
	}
}

func TestSlotClassString(t *testing.T) {
	for class, want := range map[SlotClass]string{Silent: "silent", Good: "good", Bad: "bad"} {
		if class.String() != want {
			t.Fatalf("String() = %q, want %q", class.String(), want)
		}
	}
	if SlotClass(9).String() == "" {
		t.Fatal("unknown class String empty")
	}
}

func TestSingleTransmitterImmediateEvent(t *testing.T) {
	c := New(4, 0)
	_, ev := c.Step(0, ids(7))
	if ev == nil {
		t.Fatal("lone transmitter not decoded immediately")
	}
	if ev.Size() != 1 || ev.Packets[0] != 7 || ev.WindowStart != 0 || ev.Slot != 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
}

// TestGroupRepeatDecodesAfterJSlots is the paper's headline example: the
// same group of j <= kappa packets broadcasting together decodes after
// exactly j slots.
func TestGroupRepeatDecodesAfterJSlots(t *testing.T) {
	for _, j := range []int{1, 2, 3, 5, 8} {
		c := New(8, 0)
		group := make([]PacketID, j)
		for i := range group {
			group[i] = PacketID(i + 1)
		}
		for slot := 0; slot < j-1; slot++ {
			if _, ev := c.Step(int64(slot), group); ev != nil {
				t.Fatalf("j=%d: premature event at slot %d", j, slot)
			}
		}
		_, ev := c.Step(int64(j-1), group)
		if ev == nil {
			t.Fatalf("j=%d: no event after j slots", j)
		}
		if ev.Size() != j || ev.WindowStart != 0 || ev.Slot != int64(j-1) {
			t.Fatalf("j=%d: unexpected event %+v", j, ev)
		}
	}
}

// TestStaircase is the paper's second example: (a,b,c) in slot 1, (b,c)
// in slot 2, (c) in slot 3 yields a single decoding event of size 3 at
// slot 3.
func TestStaircase(t *testing.T) {
	c := New(3, 0)
	if _, ev := c.Step(1, ids(1, 2, 3)); ev != nil {
		t.Fatalf("event too early: %+v", ev)
	}
	if _, ev := c.Step(2, ids(2, 3)); ev != nil {
		t.Fatalf("event too early: %+v", ev)
	}
	_, ev := c.Step(3, ids(3))
	if ev == nil {
		t.Fatal("staircase produced no event")
	}
	if ev.Size() != 3 || ev.WindowStart != 1 {
		t.Fatalf("unexpected event %+v", ev)
	}
}

// TestLostInformation is the paper's disjointness example: a,b broadcast
// in slots 1 and 3; c alone in slot 2.  The event at slot 2 delivers only
// c, and the slot-1 information is lost, so slot 3 does not decode a,b.
func TestLostInformation(t *testing.T) {
	c := New(3, 0)
	if _, ev := c.Step(1, ids(1, 2)); ev != nil {
		t.Fatalf("unexpected event at slot 1: %+v", ev)
	}
	_, ev := c.Step(2, ids(3))
	if ev == nil || ev.Size() != 1 || ev.Packets[0] != 3 {
		t.Fatalf("slot 2 should deliver only c: %+v", ev)
	}
	if _, ev := c.Step(3, ids(1, 2)); ev != nil {
		t.Fatalf("slot-1 info should be lost, got event %+v", ev)
	}
	// A second joint broadcast completes a fresh window of 2 good slots.
	_, ev = c.Step(4, ids(1, 2))
	if ev == nil || ev.Size() != 2 {
		t.Fatalf("fresh window should decode a,b: %+v", ev)
	}
	if ev.WindowStart != 3 {
		t.Fatalf("window should start at slot 3: %+v", ev)
	}
}

// TestBadSlotsIgnored: broadcasts during bad slots contribute nothing.
func TestBadSlotsIgnored(t *testing.T) {
	c := New(2, 0)
	// 3 transmitters > kappa=2: bad, ignored.
	if class, ev := c.Step(0, ids(1, 2, 3)); class != Bad || ev != nil {
		t.Fatalf("bad slot misclassified: %v %+v", class, ev)
	}
	if c.PendingGoodSlots() != 0 || c.PendingPackets() != 0 {
		t.Fatal("bad slot left tracked state")
	}
	// The pair decodes from two fresh good slots regardless.
	c.Step(1, ids(1, 2))
	_, ev := c.Step(2, ids(1, 2))
	if ev == nil || ev.Size() != 2 {
		t.Fatalf("pair not decoded after bad slot: %+v", ev)
	}
}

// TestBadSlotInsideWindow: a bad slot in the middle of a window does not
// break the window, it just contributes no good slot.
func TestBadSlotInsideWindow(t *testing.T) {
	c := New(2, 0)
	c.Step(0, ids(1, 2))          // good
	c.Step(1, ids(5, 6, 7))       // bad, ignored
	_, ev := c.Step(2, ids(1, 2)) // good: window [0,2] has 2 good slots, 2 packets
	if ev == nil || ev.Size() != 2 || ev.WindowStart != 0 {
		t.Fatalf("window across bad slot failed: %+v", ev)
	}
}

// TestSilentSlotInsideWindow: silence likewise leaves the window intact.
func TestSilentSlotInsideWindow(t *testing.T) {
	c := New(2, 0)
	c.Step(0, ids(1, 2))
	c.Step(1, nil)
	_, ev := c.Step(2, ids(1, 2))
	if ev == nil || ev.Size() != 2 || ev.WindowStart != 0 {
		t.Fatalf("window across silent slot failed: %+v", ev)
	}
}

// TestEarliestStartWins: when several windows are valid at the same slot,
// the earliest start delivers the superset.
func TestEarliestStartWins(t *testing.T) {
	c := New(4, 0)
	c.Step(0, ids(1, 2))       // 2 packets, 1 good slot: not yet
	_, ev := c.Step(1, ids(3)) // windows: [0,1] j=3 g=2 invalid; [1,1] j=1 g=1 valid
	if ev == nil || ev.Size() != 1 || ev.Packets[0] != 3 {
		t.Fatalf("expected lone c delivery: %+v", ev)
	}
	c2 := New(4, 0)
	c2.Step(0, ids(1, 2))
	c2.Step(1, ids(3))
	_ = c2 // same state as c after reset — now build a case with two valid windows:
	c3 := New(4, 0)
	c3.Step(0, ids(1))
	// [0,0] is valid immediately (j=1,g=1), so it fires; earliest-start
	// preference matters only at a single slot.  Construct: slot0 {1,2},
	// slot1 {1,2}: [0,1] j=2 g=2 valid, [1,1] j=2 g=1 invalid.
	c4 := New(4, 0)
	c4.Step(0, ids(1, 2))
	_, ev4 := c4.Step(1, ids(1, 2))
	if ev4 == nil || ev4.Size() != 2 || ev4.WindowStart != 0 {
		t.Fatalf("nested window choice wrong: %+v", ev4)
	}
}

// TestRebroadcastCountsOnce: a packet broadcasting in several good slots
// of a window counts once.
func TestRebroadcastCountsOnce(t *testing.T) {
	c := New(4, 0)
	c.Step(0, ids(1, 2))
	c.Step(1, ids(1, 3))
	// window [0,2]: packets {1,2,3}, good slots 3 -> fires
	_, ev := c.Step(2, ids(1))
	if ev == nil {
		t.Fatal("no event")
	}
	if ev.Size() != 3 || ev.WindowStart != 0 {
		t.Fatalf("unexpected event %+v", ev)
	}
}

func TestMaxWindowPruning(t *testing.T) {
	c := New(4, 2)       // windows of at most 2 slots
	c.Step(0, ids(1, 2)) // will be pruned before slot 2
	c.Step(1, ids(3, 4)) // 2 good slots now, 4 packets: no event
	// At slot 2, entry 0 is out of the cap: only slot-1 info remains.
	// Window [1,2]: packets {3,4,5,...}? slot 2 tx {3,4}: distinct {3,4}, g=2: valid.
	_, ev := c.Step(2, ids(3, 4))
	if ev == nil || ev.Size() != 2 || ev.WindowStart != 1 {
		t.Fatalf("pruned window decode wrong: %+v", ev)
	}
	st := c.Stats()
	if st.PrunedPackets != 2 {
		t.Fatalf("PrunedPackets = %d, want 2", st.PrunedPackets)
	}
}

// TestPruneKeepsWindowBuffer: a window-capped channel that prunes on
// every slot keeps its entry buffer, so a long run of good slots with no
// event allocates nothing once warm.
func TestPruneKeepsWindowBuffer(t *testing.T) {
	c := New(8, 4)
	txs := ids(1, 2, 3, 4, 5) // five packets never fit a 4-slot window
	now := int64(0)
	run := func() {
		for range 100 {
			if _, ev := c.Step(now, txs); ev != nil {
				t.Fatalf("slot %d: unexpected event %+v", now, ev)
			}
			now++
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("%v allocations per 100 pruning slots, want 0", allocs)
	}
	if st := c.Stats(); st.GoodSlots != now {
		t.Fatalf("%d good slots of %d", st.GoodSlots, now)
	}
}

func TestDuplicateTransmitterPanics(t *testing.T) {
	c := New(4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate transmitter did not panic")
		}
	}()
	c.Step(0, ids(1, 1))
}

func TestDuplicateInBadSlotPanics(t *testing.T) {
	c := New(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate transmitter in bad slot did not panic")
		}
	}()
	c.Step(0, ids(1, 1, 2))
}

func TestNewValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"kappa 0":    func() { New(0, 0) },
		"neg window": func() { New(2, -1) },
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

func TestStatsAccumulate(t *testing.T) {
	c := New(2, 0)
	c.Step(0, nil)
	c.Step(1, ids(1, 2, 3))
	c.Step(2, ids(9))
	st := c.Stats()
	if st.SilentSlots != 1 || st.BadSlots != 1 || st.GoodSlots != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Events != 1 || st.Delivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEquivalenceWithReference drives the optimized detector and the
// brute-force Definition 1 reference with identical random schedules and
// requires bit-identical behaviour.
func TestEquivalenceWithReference(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		kappa := 1 + r.Intn(6)
		maxWindow := 0
		if r.Bernoulli(0.5) {
			maxWindow = 1 + r.Intn(8)
		}
		numPackets := 1 + r.Intn(10)
		fast := New(kappa, maxWindow)
		ref := NewReference(kappa, maxWindow)
		for slot := int64(0); slot < 60; slot++ {
			var txs []PacketID
			for p := 0; p < numPackets; p++ {
				if r.Bernoulli(0.35) {
					txs = append(txs, PacketID(p))
				}
			}
			fc, fe := fast.Step(slot, txs)
			rc, re := ref.Step(slot, txs)
			if fc != rc {
				t.Fatalf("trial %d slot %d: class %v vs ref %v", trial, slot, fc, rc)
			}
			if (fe == nil) != (re == nil) {
				t.Fatalf("trial %d slot %d (kappa=%d win=%d): event %+v vs ref %+v",
					trial, slot, kappa, maxWindow, fe, re)
			}
			if fe != nil {
				if fe.Slot != re.Slot || fe.WindowStart != re.WindowStart {
					t.Fatalf("trial %d slot %d: window (%d,%d) vs ref (%d,%d)",
						trial, slot, fe.WindowStart, fe.Slot, re.WindowStart, re.Slot)
				}
				if len(fe.Packets) != len(re.Packets) {
					t.Fatalf("trial %d slot %d: delivered %v vs ref %v", trial, slot, fe.Packets, re.Packets)
				}
				for i := range fe.Packets {
					if fe.Packets[i] != re.Packets[i] {
						t.Fatalf("trial %d slot %d: delivered %v vs ref %v", trial, slot, fe.Packets, re.Packets)
					}
				}
			}
		}
	}
}

// TestEventSizeNeverExceedsGoodSlots checks the information-theoretic
// constraint end to end on random schedules.
func TestEventSizeNeverExceedsGoodSlots(t *testing.T) {
	r := rng.New(77)
	c := New(4, 0)
	goodSinceEvent := 0
	for slot := int64(0); slot < 5000; slot++ {
		var txs []PacketID
		for p := 0; p < 8; p++ {
			if r.Bernoulli(0.3) {
				txs = append(txs, PacketID(p))
			}
		}
		class, ev := c.Step(slot, txs)
		if class == Good {
			goodSinceEvent++
		}
		if ev != nil {
			if ev.Size() > goodSinceEvent {
				t.Fatalf("slot %d: event size %d > %d good slots since last event",
					slot, ev.Size(), goodSinceEvent)
			}
			goodSinceEvent = 0
		}
	}
}

func BenchmarkStepGroupOf16(b *testing.B) {
	c := New(64, 256)
	group := make([]PacketID, 16)
	for i := range group {
		group[i] = PacketID(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ev := c.Step(int64(i), group); ev != nil {
			for j := range group {
				group[j] += 16 // fresh packets after each delivery
			}
		}
	}
}

// BenchmarkStepScatteredEpoch is a Decodable Backoff epoch on a large
// backlog: 16 joiners with IDs scattered over a 2¹⁸ span resend until
// they decode, then a fresh draw starts the next epoch.  One op is one
// slot.
func BenchmarkStepScatteredEpoch(b *testing.B) {
	const group, span = 16, 1 << 18
	r := rng.New(5)
	c := New(64, 256)
	txs := make([]PacketID, group)
	draw := func() {
		for i := range txs {
			id := PacketID(r.Intn(span))
			for slices.Contains(txs[:i], id) {
				id = PacketID(r.Intn(span))
			}
			txs[i] = id
		}
	}
	draw()
	b.ReportAllocs()
	now := int64(0)
	for b.Loop() {
		if _, ev := c.Step(now, txs); ev != nil {
			draw()
		}
		now++
	}
}

// TestQuickProperties uses testing/quick to fuzz schedules and assert
// model invariants that must hold for any transmission pattern:
// delivered packets must have transmitted in a good slot of the window,
// event sizes never exceed the good slots since the previous event, and
// windows never overlap.
func TestQuickProperties(t *testing.T) {
	f := func(seed uint64, kappaRaw, packetsRaw uint8) bool {
		r := rng.New(seed)
		kappa := 1 + int(kappaRaw%8)
		numPackets := 1 + int(packetsRaw%12)
		c := New(kappa, 0)
		goodSince := 0
		lastEventEnd := int64(-1)
		transmittedSince := make(map[PacketID]bool)
		for slot := int64(0); slot < 120; slot++ {
			var txs []PacketID
			for p := 0; p < numPackets; p++ {
				if r.Bernoulli(0.3) {
					txs = append(txs, PacketID(p))
				}
			}
			class, ev := c.Step(slot, txs)
			if class == Good {
				goodSince++
				for _, id := range txs {
					transmittedSince[id] = true
				}
			}
			if ev != nil {
				if ev.Size() == 0 || ev.Size() > goodSince {
					return false // capacity violated
				}
				if ev.WindowStart <= lastEventEnd {
					return false // overlapping windows
				}
				if ev.Slot != slot {
					return false
				}
				for _, id := range ev.Packets {
					if !transmittedSince[id] {
						return false // delivered a silent packet
					}
				}
				lastEventEnd = ev.Slot
				goodSince = 0
				transmittedSince = make(map[PacketID]bool)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSameIDs(t *testing.T) {
	cases := []struct {
		a, b []PacketID
		want bool
	}{
		{nil, nil, true},
		{ids(1), nil, false},
		{ids(1, 2), ids(1, 2), true},
		{ids(1, 2), ids(2, 1), false},
		{ids(1, 2, 3), ids(1, 2), false},
	}
	for _, c := range cases {
		if got := sameIDs(c.a, c.b); got != c.want {
			t.Errorf("sameIDs(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPrevTxsCacheHitAndMiss(t *testing.T) {
	// Epoch-style traffic: the same valid set repeats (hit path), then a
	// different set arrives (miss path) and must be re-validated.
	c := New(2, 0)
	group := ids(1, 2, 3) // bad slot for kappa=2, but validated each step
	c.Step(0, group)
	if !sameIDs(c.prevTxs, group) {
		t.Fatalf("cache not primed: %v", c.prevTxs)
	}
	c.Step(1, group) // hit: identical consecutive list
	c.Step(2, group)
	st := c.Stats()
	if st.BadSlots != 3 {
		t.Fatalf("bad slots %d, want 3", st.BadSlots)
	}
	// Miss with a duplicate must still panic, even at the same length.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate after cache hits did not panic")
			}
		}()
		c.Step(3, ids(4, 5, 4))
	}()
}

func TestPrevTxsCacheNotPoisonedByPanic(t *testing.T) {
	// A list that failed validation must not enter the cache: replaying
	// the identical invalid list after recovering has to panic again.
	c := New(2, 0)
	bad := ids(7, 8, 7)
	for round := 0; round < 2; round++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("round %d: duplicate did not panic", round)
				}
			}()
			c.Step(int64(round), bad)
		}()
	}
}

func TestPrevTxsCacheLargeSlot(t *testing.T) {
	// Slots above the quadratic-scan threshold use the generation-stamped
	// map; both the repeat (hit) and the duplicate (miss) paths must work.
	c := New(2, 0)
	large := make([]PacketID, 40)
	for i := range large {
		large[i] = PacketID(i)
	}
	c.Step(0, large)
	c.Step(1, large) // hit path at len > 32
	if st := c.Stats(); st.BadSlots != 2 {
		t.Fatalf("bad slots %d, want 2", st.BadSlots)
	}
	large[39] = large[0] // now a duplicate
	defer func() {
		if recover() == nil {
			t.Fatal("large duplicate did not panic")
		}
	}()
	c.Step(2, large)
}

func TestAddSilentAccounting(t *testing.T) {
	// AddSilent must bump only the silent counter and leave the detector
	// state untouched: a window in progress still decodes afterwards.
	c := New(4, 0)
	c.Step(0, ids(1, 2))
	before := c.PendingGoodSlots()
	c.AddSilent(1000)
	if c.PendingGoodSlots() != before {
		t.Fatal("AddSilent disturbed detector state")
	}
	st := c.Stats()
	if st.SilentSlots != 1000 || st.GoodSlots != 1 || st.BadSlots != 0 || st.Events != 0 {
		t.Fatalf("AddSilent accounting wrong: %+v", st)
	}
	_, ev := c.Step(1001, ids(1, 2))
	if ev == nil || ev.Size() != 2 {
		t.Fatalf("window did not survive AddSilent: %+v", ev)
	}
	c.AddSilent(0) // zero is a no-op, not an error
	if c.Stats().SilentSlots != 1000 {
		t.Fatalf("silent slots %d, want 1000", c.Stats().SilentSlots)
	}
}

func TestAddSilentNegativePanics(t *testing.T) {
	c := New(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative AddSilent did not panic")
		}
	}()
	c.AddSilent(-1)
}
