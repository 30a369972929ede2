package crn_test

import (
	"fmt"

	crn "repro"
)

// ExampleRun simulates a batch through the Decodable Backoff Algorithm
// and reports its completion; seeds make the run reproducible.
func ExampleRun() {
	proto := crn.NewDecodableBackoff(64, 1)
	res := crn.Run(crn.Config{Kappa: 64, Horizon: 1, Drain: true, Seed: 2},
		proto, crn.NewBatch(1000))
	fmt.Printf("delivered %d/%d packets, throughput > 0.9: %v\n",
		res.Delivered, res.Arrivals, res.CompletionThroughput() > 0.9)
	// Output:
	// delivered 1000/1000 packets, throughput > 0.9: true
}

// ExampleNewChannel steps the Coded Radio Network Model directly: three
// packets broadcasting together decode after exactly three good slots.
func ExampleNewChannel() {
	ch := crn.NewChannel(8, 0) // κ = 8, unbounded windows
	group := []crn.PacketID{1, 2, 3}
	for slot := int64(0); slot < 3; slot++ {
		_, ev := ch.Step(slot, group)
		if ev != nil {
			fmt.Printf("decoding event at slot %d delivers %d packets\n", slot, ev.Size())
		}
	}
	// Output:
	// decoding event at slot 2 delivers 3 packets
}

// ExampleNewWindowBurst runs the worst-case adversary the Theorem 11
// bound is stated against.
func ExampleNewWindowBurst() {
	const w = 4096
	res := crn.Run(crn.Config{Kappa: 64, Horizon: 4 * w, Seed: 3},
		crn.NewDecodableBackoff(64, 4),
		crn.NewWindowBurst(w, w*85/100))
	fmt.Printf("backlog bounded by 2w: %v\n", res.MaxBacklog <= 2*w)
	// Output:
	// backlog bounded by 2w: true
}

// ExampleWithEpochObserver instruments the protocol's epochs — the unit
// the paper's analysis is phrased in.
func ExampleWithEpochObserver() {
	var successful int
	proto := crn.NewDecodableBackoff(16, 5, crn.WithEpochObserver(func(info crn.EpochInfo) {
		if info.Kind.String() == "successful" {
			successful++
		}
	}))
	res := crn.Run(crn.Config{Kappa: 16, Horizon: 1, Drain: true, Seed: 6},
		proto, crn.NewBatch(100))
	fmt.Printf("all delivered across multiple successful epochs: %v\n",
		res.Pending == 0 && successful > 1)
	// Output:
	// all delivered across multiple successful epochs: true
}

// ExampleNewDisruptor runs the adaptive adversary that bursts right
// after every silent slot, when Decodable Backoff activates its inactive
// packets, capped to the paper's sliding-window rate bound.  It hears
// the channel through the cap.
func ExampleNewDisruptor() {
	arr := crn.NewCappedArrivals(crn.NewDisruptor(8), 256, 64)
	res := crn.Run(crn.Config{Kappa: 16, Horizon: 4000, Drain: true, Seed: 3},
		crn.NewDecodableBackoff(16, 4), arr)
	fmt.Println(res.Arrival, res.Arrivals, res.Delivered, res.Pending, res.MaxBacklog, res.Elapsed)
	// Output:
	// disruptor(8)|cap(64/256) 1024 1024 0 22 4000
}
