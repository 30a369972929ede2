package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
)

// TestRunDropsTrialResults is the memory contract of the executor: a
// cell's trial Results are garbage once the cell is summarized, so the
// live heap stays flat however many cells a Run completes.  Every trial
// here retains a 16384-delivery latency reservoir in its Result;
// keeping them all would grow the live heap by well over 1 MB across
// the grid.
func TestRunDropsTrialResults(t *testing.T) {
	spec := Spec{
		Name:      "heap",
		Protocols: []string{"genie"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{8, 16, 32, 64},
		Rates:     []float64{0.2, 0.4, 0.6},
		BatchN:    16384,
		Trials:    2,
		Horizon:   100,
		Seed:      7,
	}
	// One trial slot: no other trial is in flight when OnCell samples,
	// so the sample is exactly what the run retains.
	var live []uint64
	_, err := Run(context.Background(), spec, Options{Parallelism: 1, OnCell: func(done, total int, _ *CellSummary, _ bool) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		live = append(live, ms.HeapAlloc)
	}})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 256 << 10
	if first, last := live[1], live[len(live)-1]; last > first+slack {
		t.Fatalf("live heap grew from %d B after cell 2 to %d B after cell %d: trial Results outlive their cells (samples %v)",
			first, last, len(live), live)
	}
}

// TestWorkerCannotHoardLeases pins the lease bound: a worker claims a
// cell only into a free trial slot, so it never holds more unfinished
// claims than its Parallelism, and a second worker that starts after
// the first one's first claim still finds cells to execute.
func TestWorkerCannotHoardLeases(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	backend := newCountingBackend(store, "w1", cellID(cells[0], &spec, seeds[:spec.Trials]))

	// w1's trials stall until w2 has landed a cell, so w2's share cannot
	// hinge on how fast w1 happens to run — only on the leases w1 leaves
	// unclaimed.
	const par = 2
	w2Landed := make(chan struct{})
	var once sync.Once
	execDelay = func(owner string, cell, trial int) {
		if owner == "w1" {
			select {
			case <-w2Landed:
			case <-time.After(10 * time.Second):
			}
		}
	}
	defer func() { execDelay = nil }()

	w1Done := make(chan workerOutcome, 1)
	go func() {
		opts := stealOptions("w1", backend)
		opts.Parallelism = par
		res, err := RunWorker(context.Background(), spec, opts)
		w1Done <- workerOutcome{res, err}
	}()
	select {
	case <-backend.claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("w1 never claimed its first cell")
	}
	opts := stealOptions("w2", backend)
	opts.Parallelism = par
	opts.OnCell = func(done, total int, cell *CellSummary, cached bool) {
		if !cached {
			once.Do(func() { close(w2Landed) })
		}
	}
	w2, err := RunWorker(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	w1 := <-w1Done
	if w1.err != nil {
		t.Fatal(w1.err)
	}

	for _, owner := range []string{"w1", "w2"} {
		if n := backend.maxHeldBy(owner); n < 1 || n > par {
			t.Errorf("%s held up to %d unfinished claims at Parallelism %d", owner, n, par)
		}
	}
	if w2.Executed == 0 {
		t.Error("the late worker executed nothing: the first one hoarded the grid")
	}
	if w1.res.Executed+w2.Executed != spec.Cells() {
		t.Errorf("workers executed %d + %d cells, want %d in total", w1.res.Executed, w2.Executed, spec.Cells())
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid drained by two lease-bounded workers differs from the unsharded run")
	}
}

var errStoreFull = errors.New("store full")

// failingPutBackend fails its failAt-th Put and counts every Claim.
type failingPutBackend struct {
	cache.Backend
	failAt int32
	puts   atomic.Int32
	claims atomic.Int32
}

func (b *failingPutBackend) Put(id string, v interface{}) error {
	if b.puts.Add(1) == b.failAt {
		return errStoreFull
	}
	return b.Backend.Put(id, v)
}

func (b *failingPutBackend) Claim(id, owner string, ttl time.Duration) (bool, error) {
	b.claims.Add(1)
	return b.Backend.Claim(id, owner, ttl)
}

// TestRunWorkerStopsOnPutFailure is the failure contract: the first
// backend error is returned, no trial starts once the executor has seen
// it, and no lease renewal outlives the call.
func TestRunWorkerStopsOnPutFailure(t *testing.T) {
	const failAt = 2
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			spec := smallSpec()
			store, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			backend := &failingPutBackend{Backend: store, failAt: failAt}
			const ttl = 20 * time.Millisecond
			// Trials outlast half the TTL, so lease renewals are running
			// when the Put fails.
			var started atomic.Int32
			execDelay = func(owner string, cell, trial int) {
				started.Add(1)
				time.Sleep(ttl)
			}
			defer func() { execDelay = nil }()

			opts := stealOptions("w", backend)
			opts.Parallelism = par
			opts.LeaseTTL = ttl
			res, err := RunWorker(context.Background(), spec, opts)
			if !errors.Is(err, errStoreFull) {
				t.Fatalf("RunWorker returned %v, want the failing Put's error", err)
			}
			claims := backend.claims.Load()

			// Every cell claimed beyond the failing Put's would have to fit
			// the lease bound; a worker that kept dispatching would run far
			// more trials than that.
			n := int(started.Load())
			if par == 1 && n != failAt*spec.Trials {
				t.Errorf("started %d trials, want exactly %d: the cells up to the failing Put", n, failAt*spec.Trials)
			}
			if n > (failAt+par)*spec.Trials {
				t.Errorf("started %d trials, want ≤ %d: trials kept starting after the Put failed", n, (failAt+par)*spec.Trials)
			}
			if res.Executed >= failAt+par {
				t.Errorf("executed %d cells after a failure at Put %d", res.Executed, failAt)
			}

			time.Sleep(5 * ttl)
			if got := backend.claims.Load(); got != claims {
				t.Errorf("%d Claims arrived after RunWorker returned: a lease renewal outlived the call", got-claims)
			}
		})
	}
}

// TestRunStopsOnPutFailure: Run and RunWorker share the executor, so a
// failing Cache stops them the same way.
func TestRunStopsOnPutFailure(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backend := &failingPutBackend{Backend: store, failAt: 1}
	if _, err := Run(context.Background(), smallSpec(), Options{Parallelism: 1, Cache: backend}); !errors.Is(err, errStoreFull) {
		t.Fatalf("Run returned %v, want the failing Put's error", err)
	}
	if n := backend.puts.Load(); n != 1 {
		t.Fatalf("Run made %d Puts, want 1: it kept executing after the first failed", n)
	}
}
