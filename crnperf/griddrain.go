package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// grid-drain: the committed benchmark grid (bench_spec.json, 132 cells),
// drained by one work-stealing worker with trial parallelism 2 into a
// fresh filesystem cache.Store, then read back by sweep.Assemble.
const (
	gridParallelism = 2
	gridSpecSeed    = 2022 // bench_spec.json's seed
	// gridGolden is the SHA-256 of BENCH_sweep.json, the artifact of the
	// grid at its spec seed.
	gridGolden = "e3e36f4e075e75ac0b74629e523b50d3a8f2c99f262870b14c961d28c81d2645"
)

// gridSpec is bench_spec.json with the workload seed in place of the
// spec seed.
func gridSpec(seed uint64) sweep.Spec {
	return sweep.Spec{
		Name:        "bench",
		Models:      []string{"coded", "classical:ternary"},
		Protocols:   []string{"dba", "beb", "genie", "mw"},
		Arrivals:    []string{"batch", "bernoulli"},
		Kappas:      []int{8, 64},
		Rates:       []float64{0.3, 0.7},
		Adversaries: []string{"none", "reactive:4/48", "sigmarho:1000/0.1"},
		Trials:      3,
		Horizon:     10000,
		Seed:        seed,
	}
}

type gridDrain struct {
	spec  sweep.Spec
	cells int
	work  string
	want  string // artifact digest every repetition must match
}

type gridOut struct {
	grid   *sweep.Grid
	worker *sweep.WorkerResult
	dir    string
	err    error
}

func setupGridDrain(seed uint64, work string) (instance, error) {
	g := &gridDrain{spec: gridSpec(seed), work: work}
	if err := g.spec.Validate(); err != nil {
		return nil, err
	}
	g.cells = g.spec.Cells()
	if seed == gridSpecSeed {
		g.want = gridGolden
	}
	// Warm-up: the same axes at a tiny horizon, so every protocol, medium
	// and adversary path and the store are exercised once.
	warm := g.spec
	warm.Trials, warm.Horizon = 1, 64
	if out := g.drain(warm, nil, nil); out.err != nil {
		return nil, fmt.Errorf("warm-up drain: %w", out.err)
	} else if err := os.RemoveAll(out.dir); err != nil {
		return nil, err
	}
	return g, nil
}

// drain runs one worker over a fresh store (wrapped by wrap, if set) and
// assembles the grid.
func (g *gridDrain) drain(spec sweep.Spec, wrap func(cache.Backend) cache.Backend, onCell func(int, int, *sweep.CellSummary, bool)) gridOut {
	dir, err := os.MkdirTemp(g.work, "store-")
	if err != nil {
		return gridOut{err: err}
	}
	out := gridOut{dir: dir}
	st, err := cache.Open(dir)
	if err != nil {
		out.err = err
		return out
	}
	var b cache.Backend = st
	if wrap != nil {
		b = wrap(st)
	}
	ctx := context.Background()
	out.worker, out.err = sweep.RunWorker(ctx, spec, sweep.Options{
		Parallelism: gridParallelism, Cache: b, Owner: "crnperf", OnCell: onCell,
	})
	if out.err != nil {
		return out
	}
	out.grid, out.err = sweep.Assemble(ctx, spec, b)
	return out
}

func (g *gridDrain) run() any { return g.drain(g.spec, nil, nil) }

func (g *gridDrain) check(o any) sample {
	out := o.(gridOut)
	s := sample{err: g.verify(out)}
	if s.err == nil {
		s.cells = float64(len(out.grid.Cells))
		for i := range out.grid.Cells {
			c := &out.grid.Cells[i]
			s.slots += float64(c.Elapsed)
			s.throughput += c.Throughput.Mean
		}
		s.throughput /= s.cells
	}
	return s
}

// verify removes the repetition's store and checks its artifact: the
// grid is complete, this worker executed every cell, and the rendered
// BENCH_sweep.json-format bytes are the golden ones at the spec seed (at
// other seeds, the same on every repetition).
func (g *gridDrain) verify(out gridOut) error {
	if out.dir != "" {
		if err := os.RemoveAll(out.dir); err != nil {
			return err
		}
	}
	if out.err != nil {
		return out.err
	}
	if out.worker.Executed != g.cells || out.worker.Loaded != 0 || len(out.grid.Cells) != g.cells {
		return fmt.Errorf("grid: executed %d loaded %d assembled %d, want %d fresh cells",
			out.worker.Executed, out.worker.Loaded, len(out.grid.Cells), g.cells)
	}
	b, err := json.MarshalIndent(out.grid.Bench(), "", "  ")
	if err != nil {
		return err
	}
	sum := sha256.Sum256(append(b, '\n'))
	dg := hex.EncodeToString(sum[:])
	if g.want == "" {
		g.want = dg
	}
	if dg != g.want {
		return fmt.Errorf("grid artifact digest %s, want %s", dg, g.want)
	}
	return nil
}

func (g *gridDrain) close() {}

// traced drains the grid with the store wrapped in a timing backend and
// per-cell spans taken from the OnCell timestamps: a cell's span runs
// from the previous cell's completion (or the worker's first store call)
// to its own, less the store time inside it.
func (g *gridDrain) traced(spans *spanLog) (map[string]float64, time.Duration, error) {
	vals := map[string]float64{}
	rep := spans.begin("grid-drain.traced", -1)
	defer spans.end(rep)
	var tb *timedBackend
	wrap := func(b cache.Backend) cache.Backend {
		tb = &timedBackend{inner: b}
		return tb
	}
	cellS := map[string]time.Duration{}
	var cellSum time.Duration
	var last time.Time
	var storeAtLast time.Duration
	onCell := func(_, _ int, cell *sweep.CellSummary, _ bool) {
		now := time.Now()
		from, store := last, tb.total()
		if from.IsZero() {
			from = tb.firstCall()
		}
		d := now.Sub(from) - (store - storeAtLast)
		cellS[cell.Protocol] += d
		cellSum += d
		spans.add("sweep.cell "+cell.Key(), rep, from, now)
		last, storeAtLast = now, store
	}

	t0 := time.Now()
	// RunWorker returns right after its last OnCell call; the rest of
	// the drain is Assemble.
	var workerEnd time.Time
	var storeAtWorkerEnd time.Duration
	out := g.drain(g.spec, wrap, func(done, total int, cell *sweep.CellSummary, cached bool) {
		onCell(done, total, cell, cached)
		if done == total {
			workerEnd, storeAtWorkerEnd = time.Now(), tb.total()
		}
	})
	end := time.Now()
	if err := g.verify(out); err != nil {
		return nil, 0, err
	}
	spans.add("sweep.RunWorker", rep, t0, workerEnd)
	spans.add("sweep.Assemble", rep, workerEnd, end)
	workerS := workerEnd.Sub(t0)
	vals["sweep.worker_self_s"] = (workerS - cellSum - storeAtWorkerEnd).Seconds()
	vals["sweep.assemble_s"] = (end.Sub(workerEnd) - (tb.total() - storeAtWorkerEnd)).Seconds()
	for _, p := range g.spec.Protocols {
		vals["sweep.cell_s."+p] = cellS[p].Seconds()
	}
	vals["sweep.cells_executed"] = float64(out.worker.Executed)
	vals["sweep.cells_loaded"] = float64(out.worker.Loaded)
	tb.report(vals)
	return vals, end.Sub(t0), nil
}

// timedBackend wraps a cache.Backend, timing and counting every call.
// The worker's lease-renewal goroutine may call Claim concurrently, so
// the counters are guarded.
type timedBackend struct {
	inner cache.Backend

	mu                       sync.Mutex
	first                    time.Time
	get, put, claim          time.Duration
	gets, hits, puts, claims int
}

func (b *timedBackend) record(t0 time.Time, acc *time.Duration, calls *int) {
	d := time.Since(t0)
	b.mu.Lock()
	if b.first.IsZero() {
		b.first = t0
	}
	*acc += d
	*calls++
	b.mu.Unlock()
}

func (b *timedBackend) Get(id string, v interface{}) (bool, error) {
	t0 := time.Now()
	ok, err := b.inner.Get(id, v)
	b.record(t0, &b.get, &b.gets)
	if ok {
		b.mu.Lock()
		b.hits++
		b.mu.Unlock()
	}
	return ok, err
}

func (b *timedBackend) Put(id string, v interface{}) error {
	t0 := time.Now()
	err := b.inner.Put(id, v)
	b.record(t0, &b.put, &b.puts)
	return err
}

// List is not on the drain's path (neither RunWorker nor Assemble calls
// it), so it is passed through untimed.
func (b *timedBackend) List() ([]string, error) { return b.inner.List() }

func (b *timedBackend) Claim(id, owner string, ttl time.Duration) (bool, error) {
	t0 := time.Now()
	ok, err := b.inner.Claim(id, owner, ttl)
	b.record(t0, &b.claim, &b.claims)
	return ok, err
}

// total is the store time so far, all calls together.
func (b *timedBackend) total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.get + b.put + b.claim
}

func (b *timedBackend) firstCall() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.first
}

func (b *timedBackend) report(vals map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	vals["cache.claim_s"] = b.claim.Seconds()
	vals["cache.claim_calls"] = float64(b.claims)
	vals["cache.put_s"] = b.put.Seconds()
	vals["cache.put_calls"] = float64(b.puts)
	vals["cache.get_s"] = b.get.Seconds()
	vals["cache.get_calls"] = float64(b.gets)
	if b.gets > 0 {
		vals["cache.get_hit_ratio"] = float64(b.hits) / float64(b.gets)
	}
}
