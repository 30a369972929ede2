package arrival

import (
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

func TestNone(t *testing.T) {
	var n None
	if n.Injections(0, nil) != 0 || n.NextAfter(0) != -1 {
		t.Fatal("None injects")
	}
}

func TestBatch(t *testing.T) {
	b := &Batch{At: 5, N: 10}
	r := rng.New(1)
	total := 0
	for now := int64(0); now < 20; now++ {
		total += b.Injections(now, r)
	}
	if total != 10 {
		t.Fatalf("batch total %d", total)
	}
	if b.NextAfter(0) != 5 {
		t.Fatalf("NextAfter(0) = %d", b.NextAfter(0))
	}
	if b.NextAfter(5) != -1 {
		t.Fatalf("NextAfter(5) = %d", b.NextAfter(5))
	}
}

func TestBernoulliRate(t *testing.T) {
	b := &Bernoulli{Rate: 0.3}
	r := rng.New(2)
	total := 0
	const slots = 100000
	for now := int64(0); now < slots; now++ {
		total += b.Injections(now, r)
	}
	got := float64(total) / slots
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("bernoulli rate %v", got)
	}
	if b.NextAfter(7) != 8 {
		t.Fatal("NextAfter wrong")
	}
	if (&Bernoulli{Rate: 0}).NextAfter(7) != -1 {
		t.Fatal("zero-rate NextAfter wrong")
	}
}

func TestPoissonRate(t *testing.T) {
	p := &Poisson{Lambda: 0.7}
	r := rng.New(3)
	total := 0
	const slots = 100000
	for now := int64(0); now < slots; now++ {
		total += p.Injections(now, r)
	}
	got := float64(total) / slots
	if math.Abs(got-0.7) > 0.02 {
		t.Fatalf("poisson rate %v", got)
	}
}

func TestEvenPacedExactRate(t *testing.T) {
	e := NewEvenPaced(0.37)
	total := 0
	const slots = 10000
	for now := int64(0); now < slots; now++ {
		total += e.Injections(now, nil)
	}
	if want := int(0.37 * slots); total < want-1 || total > want+1 {
		t.Fatalf("even-paced total %d, want ~%d", total, want)
	}
}

func TestEvenPacedSkippedSlots(t *testing.T) {
	e := NewEvenPaced(0.5)
	// Slots 0..9 then jump to 99: the gap must be accounted.
	total := 0
	for now := int64(0); now < 10; now++ {
		total += e.Injections(now, nil)
	}
	total += e.Injections(99, nil)
	if want := 50; total != want {
		t.Fatalf("after skip total %d, want %d", total, want)
	}
}

func TestEvenPacedMonotonicPanics(t *testing.T) {
	e := NewEvenPaced(0.5)
	e.Injections(5, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing slot did not panic")
		}
	}()
	e.Injections(5, nil)
}

func TestWindowBurst(t *testing.T) {
	w := &WindowBurst{Window: 10, PerWindow: 7}
	r := rng.New(4)
	total := 0
	for now := int64(0); now < 100; now++ {
		n := w.Injections(now, r)
		if n > 0 && now%10 != 0 {
			t.Fatalf("burst at non-boundary slot %d", now)
		}
		total += n
	}
	if total != 70 {
		t.Fatalf("burst total %d", total)
	}
	if w.NextAfter(0) != 10 || w.NextAfter(9) != 10 || w.NextAfter(10) != 20 {
		t.Fatal("NextAfter boundaries wrong")
	}
}

func TestWindowBurstLimit(t *testing.T) {
	w := &WindowBurst{Window: 10, PerWindow: 5, Limit: 25}
	r := rng.New(4)
	total := 0
	for now := int64(0); now < 100; now++ {
		total += w.Injections(now, r)
	}
	if total != 15 { // bursts at 0, 10, 20
		t.Fatalf("limited burst total %d, want 15", total)
	}
	if w.NextAfter(20) != -1 {
		t.Fatalf("NextAfter past limit = %d", w.NextAfter(20))
	}
}

func TestDisruptorFiresAfterSilence(t *testing.T) {
	d := &Disruptor{BurstSize: 4}
	r := rng.New(7)
	if d.Injections(0, r) != 0 {
		t.Fatal("disruptor fired unprompted")
	}
	d.Observe(channel.Feedback{Slot: 0, Silent: true})
	if d.Injections(1, r) != 4 {
		t.Fatal("disruptor did not fire after silence")
	}
	if d.Injections(2, r) != 0 {
		t.Fatal("disruptor fired twice per silence")
	}
	d.Observe(channel.Feedback{Slot: 3, Silent: false})
	if d.Injections(4, r) != 0 {
		t.Fatal("disruptor fired after non-silent slot")
	}
}

func TestCapSlidingWindow(t *testing.T) {
	// Inner wants 5 per slot; cap allows 6 per window of 4.
	inner := NewEvenPaced(5)
	c := NewCap(inner, 4, 6)
	r := rng.New(8)
	var got []int
	for now := int64(0); now < 8; now++ {
		got = append(got, c.Injections(now, r))
	}
	// Verify the constraint: every window of 4 consecutive slots ≤ 6.
	for s := 0; s+4 <= len(got); s++ {
		sum := got[s] + got[s+1] + got[s+2] + got[s+3]
		if sum > 6 {
			t.Fatalf("window at %d has %d > 6 arrivals (%v)", s, sum, got)
		}
	}
	// And the budget is actually used: slot 0 gets 5, slot 1 gets 1.
	if got[0] != 5 || got[1] != 1 {
		t.Fatalf("cap schedule %v", got)
	}
}

func TestCapReplenishes(t *testing.T) {
	inner := &WindowBurst{Window: 3, PerWindow: 3}
	c := NewCap(inner, 3, 3)
	r := rng.New(9)
	var got []int
	for now := int64(0); now < 6; now++ {
		got = append(got, c.Injections(now, r))
	}
	if got[0] != 3 || got[3] != 3 {
		t.Fatalf("cap blocked legal arrivals: %v", got)
	}
}

func TestCapValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"window": func() { NewCap(None{}, 0, 1) },
		"max":    func() { NewCap(None{}, 1, -1) },
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

func TestCapForwardsObserve(t *testing.T) {
	d := &Disruptor{BurstSize: 2}
	c := NewCap(d, 10, 1)
	c.Observe(channel.Feedback{Slot: 0, Silent: true})
	r := rng.New(10)
	if c.Injections(1, r) != 1 {
		t.Fatal("cap did not forward observation / limit burst")
	}
}

func TestNegativeRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	NewEvenPaced(-1)
}

func TestNames(t *testing.T) {
	procs := []Process{
		None{},
		&Batch{At: 0, N: 5},
		&Bernoulli{Rate: 0.5},
		&Poisson{Lambda: 0.5},
		NewEvenPaced(0.5),
		&WindowBurst{Window: 10, PerWindow: 2},
		&Disruptor{BurstSize: 3},
		NewCap(None{}, 5, 1),
	}
	seen := map[string]bool{}
	for _, p := range procs {
		name := p.Name()
		if name == "" {
			t.Fatalf("%T has empty name", p)
		}
		if seen[name] {
			t.Fatalf("duplicate process name %q", name)
		}
		seen[name] = true
	}
}

func TestMoreNextAfter(t *testing.T) {
	if (&Poisson{Lambda: 0}).NextAfter(3) != -1 {
		t.Fatal("zero-lambda Poisson NextAfter")
	}
	if (&Poisson{Lambda: 1}).NextAfter(3) != 4 {
		t.Fatal("Poisson NextAfter")
	}
	e := NewEvenPaced(0)
	if e.NextAfter(3) != -1 {
		t.Fatal("zero-rate EvenPaced NextAfter")
	}
	e2 := NewEvenPaced(0.5)
	if e2.NextAfter(3) != 4 {
		t.Fatal("EvenPaced NextAfter")
	}
	d := &Disruptor{BurstSize: 1}
	if d.NextAfter(3) != 4 {
		t.Fatal("Disruptor NextAfter")
	}
	c := NewCap(&Batch{At: 9, N: 1}, 5, 1)
	if c.NextAfter(3) != 9 {
		t.Fatal("Cap NextAfter should forward")
	}
}

func TestMergeSumsAndForwards(t *testing.T) {
	m := &Merge{
		A: &Batch{At: 5, N: 3},
		B: &Disruptor{BurstSize: 2},
	}
	if m.Name() != "batch(3@5)+disruptor(2)" {
		t.Fatalf("name %q", m.Name())
	}
	r := rng.New(1)
	// Disruptor armed by silence injects alongside the batch.
	m.Observe(channel.Feedback{Slot: 4, Silent: true})
	if got := m.Injections(5, r); got != 5 {
		t.Fatalf("merged injections %d, want 3+2", got)
	}
	// NextAfter is the earlier of the two sides.
	if got := m.NextAfter(0); got != 1 {
		t.Fatalf("NextAfter %d, want 1 (disruptor side)", got)
	}
	finite := &Merge{A: &Batch{At: 5, N: 1}, B: &Batch{At: 9, N: 1}}
	if finite.NextAfter(0) != 5 || finite.NextAfter(5) != 9 || finite.NextAfter(9) != -1 {
		t.Fatalf("finite merge NextAfter wrong: %d %d %d",
			finite.NextAfter(0), finite.NextAfter(5), finite.NextAfter(9))
	}
}
