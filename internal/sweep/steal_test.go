package sweep

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
)

// stealOptions are worker options tuned for tests: fast polling so a
// worker waiting on a neighbor's lease notices quickly.
func stealOptions(owner string, store cache.Backend) Options {
	return Options{Cache: store, Owner: owner, LeaseTTL: time.Minute, Poll: 2 * time.Millisecond}
}

// unshardedJSON is the reference artifact every scheduling policy must
// reproduce byte-for-byte.
func unshardedJSON(t *testing.T, spec Spec) []byte {
	t.Helper()
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func assembledJSON(t *testing.T, spec Spec, backend cache.Backend) []byte {
	t.Helper()
	grid, err := Assemble(context.Background(), spec, backend)
	if err != nil {
		t.Fatal(err)
	}
	data, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkStealingDrainByteIdentical is the tentpole contract (and the
// race-detector test for N workers over one shared store): concurrent
// goroutine workers drain one grid through advisory claims, and the
// assembled Grid is byte-identical to the unsharded sweep.Run output.
func TestWorkStealingDrainByteIdentical(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	results := make([]*WorkerResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := stealOptions([]string{"w1", "w2", "w3", "w4"}[w], store)
			results[w], errs[w] = RunWorker(context.Background(), spec, opts)
		}(w)
	}
	wg.Wait()
	executed, loaded := 0, 0
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		executed += results[w].Executed
		loaded += results[w].Loaded
	}
	total := spec.Cells()
	if executed != total {
		t.Fatalf("workers executed %d cells in total, want exactly %d (each cell computed once)", executed, total)
	}
	for w, r := range results {
		if r.Executed+r.Loaded != total {
			t.Fatalf("worker %d observed %d cells, want %d", w, r.Executed+r.Loaded, total)
		}
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("work-stealing grid differs from the unsharded run")
	}
}

// TestWorkerPreemption is the lease-expiry contract: cells claimed by a
// worker that died mid-lease become stealable once the lease expires,
// and the re-claimed cells produce the same bytes as everyone else's.
func TestWorkerPreemption(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A "worker" claims three cells and dies without completing them —
	// exactly the state RunWorker leaves if killed between Claim and Put.
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	for i := 0; i < 3; i++ {
		id := cellID(cells[i], &spec, seeds[i*spec.Trials:(i+1)*spec.Trials])
		if ok, err := store.Claim(id, "dead-worker", 30*time.Millisecond); err != nil || !ok {
			t.Fatalf("dead worker's claim %d = (%v, %v)", i, ok, err)
		}
	}
	// A surviving worker must stall on those cells until the leases
	// expire, then re-claim and finish the grid alone.
	res, err := RunWorker(context.Background(), spec, stealOptions("survivor", store))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != spec.Cells() {
		t.Fatalf("survivor executed %d cells, want %d (including the 3 re-claimed)", res.Executed, spec.Cells())
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after preemption differs from the unsharded run")
	}
}

// TestWorkerKilledAndRestarted kills a worker mid-run (context
// cancellation after its second cell) and restarts it: the restarted
// worker finds its predecessor's records, renews its own still-live
// leases, completes the rest, and the assembled grid is byte-identical.
func TestWorkerKilledAndRestarted(t *testing.T) {
	spec := smallSpec()
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := stealOptions("w1", store)
	opts.OnCell = func(done, total int, cell *CellSummary, cached bool) {
		if done == 2 {
			cancel() // the "kill": the worker dies before its next claim
		}
	}
	res, err := RunWorker(ctx, spec, opts)
	if err == nil {
		t.Fatal("killed worker reported success")
	}
	if res.Executed < 2 || res.Executed >= spec.Cells() {
		t.Fatalf("killed worker executed %d cells, want a strict partial run", res.Executed)
	}
	// Restart under the same owner: earlier cells load from the store,
	// the remainder execute, nothing is recomputed.
	res2, err := RunWorker(context.Background(), spec, stealOptions("w1", store))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Loaded != res.Executed || res2.Executed != spec.Cells()-res.Executed {
		t.Fatalf("restart loaded=%d executed=%d after a %d-cell first life",
			res2.Loaded, res2.Executed, res.Executed)
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after kill+restart differs from the unsharded run")
	}
}

// TestDuplicateCompletionByteIdentical pins the property the whole
// advisory-lease design leans on: two workers completing the same cell
// write byte-identical records (same content identity ⇒ same bytes), so
// last-write-wins cannot corrupt a grid.
func TestDuplicateCompletionByteIdentical(t *testing.T) {
	spec := smallSpec()
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	id := cellID(cells[0], &spec, seeds[:spec.Trials])
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Run without Resume executes cell 0 afresh each time and writes its
	// record, as each of two racing workers would.
	var first []byte
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := Run(context.Background(), spec, Options{Cache: store}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(store.Path(id))
		if err != nil {
			t.Fatal(err)
		}
		if attempt == 0 {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatal("two completions of one cell identity wrote different bytes")
		}
	}
}

// TestWorkStealingOverHTTPBackend drives two concurrent workers through
// the HTTP client+server pair — the multi-machine path — and assembles
// from the underlying filesystem store, proving the two views are one
// namespace.
func TestWorkStealingOverHTTPBackend(t *testing.T) {
	spec := smallSpec()
	spec.Kappas = []int{8} // halve the grid: HTTP round-trips per cell add up
	want := unshardedJSON(t, spec)
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpstore.NewServer(store))
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := httpstore.NewClient(srv.URL)
			if err != nil {
				errs[w] = err
				return
			}
			_, errs[w] = RunWorker(context.Background(), spec, stealOptions([]string{"m1", "m2"}[w], client))
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("HTTP-backed work-stealing grid differs from the unsharded run")
	}
}

// workerOutcome carries a RunWorker call's returns across goroutines.
type workerOutcome struct {
	res *WorkerResult
	err error
}

// countingBackend wraps a Backend to observe the lease traffic a
// worker generates: successful claims per (owner, id), record writes
// per id, each owner's high-water mark of claimed cells still without a
// record, plus a one-shot signal when a chosen owner first claims a
// chosen cell.
type countingBackend struct {
	cache.Backend
	mu       sync.Mutex
	claims   map[string]int             // owner + "\x00" + id → successful claims
	puts     map[string]int             // id → Put calls
	held     map[string]map[string]bool // owner → claimed ids not yet Put
	maxHeld  map[string]int             // owner → most ids held at once
	watchID  string
	watchOwn string
	claimed  chan struct{}
	once     sync.Once
}

func newCountingBackend(inner cache.Backend, watchOwner, watchID string) *countingBackend {
	return &countingBackend{
		Backend:  inner,
		claims:   make(map[string]int),
		puts:     make(map[string]int),
		held:     make(map[string]map[string]bool),
		maxHeld:  make(map[string]int),
		watchID:  watchID,
		watchOwn: watchOwner,
		claimed:  make(chan struct{}),
	}
}

func (c *countingBackend) Claim(id, owner string, ttl time.Duration) (bool, error) {
	ok, err := c.Backend.Claim(id, owner, ttl)
	if ok {
		c.mu.Lock()
		c.claims[owner+"\x00"+id]++
		if c.held[owner] == nil {
			c.held[owner] = make(map[string]bool)
		}
		c.held[owner][id] = true
		if n := len(c.held[owner]); n > c.maxHeld[owner] {
			c.maxHeld[owner] = n
		}
		c.mu.Unlock()
		if owner == c.watchOwn && id == c.watchID {
			c.once.Do(func() { close(c.claimed) })
		}
	}
	return ok, err
}

func (c *countingBackend) Put(id string, v interface{}) error {
	c.mu.Lock()
	c.puts[id]++
	for _, ids := range c.held {
		delete(ids, id)
	}
	c.mu.Unlock()
	return c.Backend.Put(id, v)
}

func (c *countingBackend) claimCount(owner, id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claims[owner+"\x00"+id]
}

func (c *countingBackend) putCount(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts[id]
}

func (c *countingBackend) maxHeldBy(owner string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxHeld[owner]
}

// TestLeaseRenewalKeepsSlowCellOwned is the renewal contract: a cell
// whose execution outlives the lease TTL must not look dead.  The slow
// worker's renewal goroutine re-claims at TTL/2 while its other trial
// slot keeps dispatching cells and an eager competitor races through
// the rest of the grid; the eager worker must never win the slow cell,
// and exactly one record lands for it.
func TestLeaseRenewalKeepsSlowCellOwned(t *testing.T) {
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	seeds := spec.jobSeeds(len(cells))
	slowID := cellID(cells[0], &spec, seeds[:spec.Trials])
	backend := newCountingBackend(store, "slow", slowID)

	// Cell 0's first trial takes ~3× the lease TTL under the slow owner;
	// everything else runs at full speed.
	const ttl = 250 * time.Millisecond
	execDelay = func(owner string, cell, trial int) {
		if owner == "slow" && cell == 0 && trial == 0 {
			time.Sleep(3 * ttl)
		}
	}
	defer func() { execDelay = nil }()

	slowDone := make(chan workerOutcome, 1)
	go func() {
		opts := stealOptions("slow", backend)
		opts.Parallelism = 2
		opts.LeaseTTL = ttl
		opts.Poll = 20 * time.Millisecond
		res, err := RunWorker(context.Background(), spec, opts)
		slowDone <- workerOutcome{res, err}
	}()

	// Only start the eager worker once the slow one holds cell 0, so the
	// race over that cell is guaranteed to happen.
	select {
	case <-backend.claimed:
	case <-time.After(10 * time.Second):
		t.Fatal("slow worker never claimed cell 0")
	}
	opts := stealOptions("eager", backend)
	opts.Parallelism = 2
	opts.LeaseTTL = ttl
	opts.Poll = 20 * time.Millisecond
	eager, err := RunWorker(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	slow := <-slowDone
	if slow.err != nil {
		t.Fatal(slow.err)
	}

	if n := backend.claimCount("slow", slowID); n < 2 {
		t.Errorf("slow owner claimed its cell %d times, want ≥ 2 (initial + TTL/2 renewals)", n)
	}
	if n := backend.claimCount("eager", slowID); n != 0 {
		t.Errorf("eager worker stole the renewed lease %d times, want 0", n)
	}
	if n := backend.putCount(slowID); n != 1 {
		t.Errorf("slow cell was written %d times, want exactly 1", n)
	}
	if slow.res.Executed < 2 {
		t.Errorf("slow worker executed %d cells, want the slow one plus others dispatched beside it", slow.res.Executed)
	}
	if eager.Executed == 0 || eager.Executed >= spec.Cells() {
		t.Errorf("eager worker executed %d cells, want a strict nonzero share", eager.Executed)
	}
	want := unshardedJSON(t, spec)
	if got := assembledJSON(t, spec, store); !bytes.Equal(want, got) {
		t.Fatal("grid after a renewed slow cell differs from the unsharded run")
	}
}

func TestRunWorkerRequiresBackend(t *testing.T) {
	if _, err := RunWorker(context.Background(), smallSpec(), Options{}); err == nil {
		t.Fatal("RunWorker without a backend accepted")
	}
}

// TestRunWorkerRejectsInvalidShard: a malformed claim filter fails
// before the worker claims anything, and Run, which always computes the
// whole grid, refuses a shard rather than ignoring it.
func TestRunWorkerRejectsInvalidShard(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []Shard{{Index: 3, Count: 2}, {Index: 0, Count: 2}, {Index: 1, Count: 0}} {
		if res, err := RunWorker(context.Background(), smallSpec(), Options{Cache: store, Shard: sh}); err == nil || res != nil {
			t.Errorf("shard %+v: RunWorker returned %+v, %v; want an error and no result", sh, res, err)
		}
	}
	if entries, err := os.ReadDir(store.Dir()); err != nil || len(entries) != 0 {
		t.Fatalf("store holds %d entries (%v) after rejected workers, want none", len(entries), err)
	}
	if _, err := Run(context.Background(), smallSpec(), Options{Shard: Shard{Index: 1, Count: 2}}); err == nil {
		t.Fatal("Run accepted a shard")
	}
}

func TestAssembleReportsMissingCells(t *testing.T) {
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(context.Background(), spec, store); err == nil {
		t.Fatal("assemble of an empty backend succeeded")
	}
	// Half-fill via a shard worker into the same namespace, then
	// assemble: still incomplete, and the error says how incomplete.
	half := func(k int) {
		if _, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: k, Count: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	half(1)
	if _, err := Assemble(context.Background(), spec, store); err == nil || !strings.Contains(err.Error(), "8 of 16 cells") {
		t.Fatalf("assemble of a half-drained backend: err = %v, want it to report 8 of 16 cells", err)
	}
	// Completing the other half makes assembly whole — shard workers and
	// runs share one record namespace.
	half(2)
	if got := assembledJSON(t, spec, store); !bytes.Equal(unshardedJSON(t, spec), got) {
		t.Fatal("shard-filled assemble differs from the unsharded run")
	}
}

// TestAssembleRefusesDamagedRecords pins what Assemble, the one way a
// distributed grid comes back together, must refuse.  Each case damages
// cell 0's record in a fully drained store; Assemble must then fail,
// naming cell 0 as missing, and return no grid.
func TestAssembleRefusesDamagedRecords(t *testing.T) {
	spec := smallSpec()
	cells := spec.Expand()
	drained := func(spec Spec) *cache.Store {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), spec, Options{Cache: store}); err != nil {
			t.Fatal(err)
		}
		return store
	}
	cell0 := func(spec Spec) string { return cellID(cells[0], &spec, spec.jobSeeds(len(cells))[:spec.Trials]) }
	good := drained(spec)
	other := spec
	other.Seed++ // same shape, another seed
	foreign, err := os.ReadFile(drained(other).Path(cell0(other)))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(mutate func(*CellRecord)) func(*cache.Store) error {
		return func(store *cache.Store) error {
			var rec CellRecord
			if ok, err := store.Get(cell0(spec), &rec); !ok || err != nil {
				return fmt.Errorf("reading cell 0: ok=%v err=%v", ok, err)
			}
			mutate(&rec)
			return store.Put(cell0(spec), &rec)
		}
	}
	for _, c := range []struct {
		name   string
		damage func(*cache.Store) error
	}{
		{"stale schema version", edit(func(r *CellRecord) { r.SchemaVersion = "crn-sweep/0" })},
		{"tampered key", edit(func(r *CellRecord) { r.Key = cells[1].Key() })},
		{"another spec's record", func(store *cache.Store) error {
			return os.WriteFile(store.Path(cell0(spec)), foreign, 0o644)
		}},
		{"truncated JSON", func(store *cache.Store) error {
			data, err := os.ReadFile(store.Path(cell0(spec)))
			if err != nil {
				return err
			}
			return os.WriteFile(store.Path(cell0(spec)), data[:len(data)/2], 0o644)
		}},
	} {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		copyRecords(t, good.Dir(), store.Dir())
		if err := c.damage(store); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		grid, err := Assemble(context.Background(), spec, store)
		if grid != nil || err == nil || !strings.Contains(err.Error(), "first missing cell 0 ("+cells[0].Key()+")") {
			t.Errorf("%s: Assemble returned grid=%v, err=%v; want no grid and cell 0 named missing", c.name, grid != nil, err)
		}
	}
}

// BenchmarkRunWorkerDrain times one work-stealing worker at two trial
// slots draining smallSpec's 16-cell grid, through the filesystem store
// and through the HTTP client against an in-process crnserve handler,
// and reports cells/s.  Each iteration reseeds the spec, so every cell
// identity is new to the store and the whole grid executes.
//
//	go test -run '^$' -bench RunWorkerDrain -cpu 2 ./internal/sweep/
func BenchmarkRunWorkerDrain(b *testing.B) {
	for _, bk := range []struct {
		name string
		open func(b *testing.B, store *cache.Store) cache.Backend
	}{
		{"store", func(b *testing.B, store *cache.Store) cache.Backend { return store }},
		{"http", func(b *testing.B, store *cache.Store) cache.Backend {
			srv := httptest.NewServer(httpstore.NewServer(store))
			b.Cleanup(srv.Close)
			client, err := httpstore.NewClient(srv.URL)
			if err != nil {
				b.Fatal(err)
			}
			return client
		}},
	} {
		b.Run(bk.name, func(b *testing.B) {
			store, err := cache.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			backend := bk.open(b, store)
			spec := smallSpec()
			cells := 0
			for b.Loop() {
				spec.Seed++
				res, err := RunWorker(context.Background(), spec, Options{Parallelism: 2, Cache: backend, Owner: "bench"})
				if err != nil {
					b.Fatal(err)
				}
				cells += res.Executed
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
