package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
)

// protoSeedSalt decorrelates a trial's protocol rng stream from its
// arrival stream (which uses the trial seed directly via sim.Config).
const protoSeedSalt = 0x70726f746f636f6c // "protocol"

// Options tunes sweep execution.  The zero value is ready to use.
type Options struct {
	// Parallelism is the number of trial slots (0 = GOMAXPROCS).  Trials
	// of successive cells share the slots: the next cell starts as soon
	// as a slot frees, so every slot stays busy while work is left.  A
	// work-stealing worker claims a cell only into a free slot, so it
	// never holds more than Parallelism unfinished leases.
	Parallelism int
	// OnCell, if set, is called as each cell completes — executed, or
	// loaded from the cache (under Resume, or by a worker) — with the
	// number of completed cells and the total (a worker's shard, or the
	// whole grid).  Calls are serialized.  Executed cells report in
	// completion order, which need not be grid order since cells
	// overlap; Run reports its loaded cells first, in grid order, while
	// a worker's loaded cells may interleave with its executed ones.
	OnCell func(done, total int, cell *CellSummary, cached bool)
	// Cache, if non-nil, persists every completed cell as a
	// content-addressed record keyed by cell identity, so a later Resume
	// run — or a concurrent work-stealing worker on another machine —
	// re-executes only what is missing.  A filesystem *cache.Store and an
	// httpstore.Client are interchangeable here.
	Cache cache.Backend
	// Resume loads cells whose records are already in Cache instead of
	// executing them.  Requires Cache.
	Resume bool

	// Owner identifies this worker in lease claims (RunWorker only).
	// Empty derives a process-unique label.  Purely diagnostic: results
	// never depend on it.
	Owner string
	// LeaseTTL bounds how long a claimed-but-unfinished cell stays
	// unstealable after its worker dies (RunWorker only; 0 =
	// DefaultLeaseTTL).  A live worker re-claims each of its unfinished
	// cells at half the TTL, so a cell slower than the TTL stays owned.
	LeaseTTL time.Duration
	// Poll is how long a worker waits between scans when every missing
	// cell is leased to someone else (RunWorker only; 0 = 100ms).
	Poll time.Duration
	// Shard restricts a worker to one static slice of the grid
	// (RunWorker only; the zero value is the whole grid): it claims,
	// loads and counts only the cells the shard owns.  Shard workers on
	// machines that share nothing fill one record namespace, so their
	// directories' records copied together Assemble like one drain.
	Shard Shard
}

// trialOut is one trial as summarize reads it: its Result by value,
// less the latency sample (the trial slot Runner's reservoir, which the
// slot's next trial overwrites), whose p50 and p99 are taken first.
type trialOut struct {
	res       sim.Result
	latency   []float64 // p50 and p99; nil if the trial retained none
	errEpochs int64
}

// reduceTrial takes a finished trial's trialOut.  The quantiles sort
// the trial's own sample in place: nothing reads it again.
func reduceTrial(r *sim.Result, errEpochs int64) trialOut {
	out := trialOut{res: *r, errEpochs: errEpochs}
	out.res.LatencySample = nil
	if r.LatencySample != nil && r.LatencySample.Len() > 0 {
		out.latency = r.LatencySample.Quantiles(0.50, 0.99)
	}
	return out
}

// CellRecord is the cache-record schema for one completed cell — the
// unit the shared backend stores and crnquery reads.  The identity
// fields are re-checked on load: a record whose stored identity,
// scenario key, or schema version disagrees with what the spec derives
// is ignored (treated as a miss), never merged.
type CellRecord struct {
	SchemaVersion string      `json:"schema_version"`
	ID            string      `json:"id"`
	Key           string      `json:"key"`
	Index         int         `json:"index"`
	Cell          CellSummary `json:"cell"`
}

// Valid reports whether a record loaded under id is trustworthy under
// the current schema: it names that id, and its stored key is the key
// of the summary it carries.  loadCell also requires the key the spec
// derives; crnquery, which has no spec, checks only this.
func (r *CellRecord) Valid(id string) bool {
	return r.SchemaVersion == SchemaVersion && r.ID == id && r.Key == r.Cell.Key()
}

// loadCell fetches and verifies one cell from a backend.  Absent,
// corrupt, foreign, and stale-schema records are all misses.
func loadCell(b cache.Backend, id, key string) (CellSummary, bool, error) {
	var rec CellRecord
	ok, err := b.Get(id, &rec)
	if err != nil {
		return CellSummary{}, false, err
	}
	if !ok || !rec.Valid(id) || rec.Key != key {
		return CellSummary{}, false, nil
	}
	return rec.Cell, true, nil
}

// putCell persists one completed cell to a backend.
func putCell(b cache.Backend, id string, index int, key string, cell CellSummary) error {
	return b.Put(id, &CellRecord{
		SchemaVersion: SchemaVersion,
		ID:            id,
		Key:           key,
		Index:         index,
		Cell:          cell,
	})
}

// Run expands the spec and executes every (cell, trial) pair over
// Options.Parallelism trial slots.  Trial seeds derive deterministically
// from spec.Seed in canonical cell order, so the resulting Grid is
// identical for any parallelism — and, with Options.Cache/Resume, for
// any interruption point: completed cells are re-loaded, missing ones
// re-executed, and the artifact is byte-identical to an uninterrupted
// run.  Cancel ctx to stop early: in-flight trials finish (and completed
// cells stay cached), then Run returns the context's error.  The first
// Cache error likewise stops new trials and is returned.
//
// Run is the static scheduling policy: this process executes every
// cell.  RunWorker (steal.go) instead claims cells from a shared
// backend at run time; both feed the same executor, so the policies
// differ only in who executes a cell, never in what the cell contains.
func Run(ctx context.Context, spec Spec, opts Options) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Resume && opts.Cache == nil {
		return nil, fmt.Errorf("sweep: Resume requires a Cache")
	}
	if !opts.Shard.IsAll() {
		return nil, fmt.Errorf("sweep: Options.Shard filters a worker's claims; Run always computes the whole grid")
	}
	p := newPlan(&spec)
	grid := &Grid{Spec: spec, Cells: make([]CellSummary, len(p.cells))}
	e := newExecutor(p, &opts, len(p.cells))
	var pending []int // grid positions that need execution
	for i := range p.cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Resume {
			// The identity hash names the record, but trust nothing: a
			// record is reused only if its stored identity agrees with the
			// one this spec derives for this cell (loadCell re-checks).
			cell, ok, err := loadCell(opts.Cache, p.ids[i], p.cells[i].Key())
			if err != nil {
				return nil, err
			}
			if ok {
				// Cache hits report first, in grid order; executed cells
				// follow as they land.
				grid.Cells[i] = cell
				e.report(&cell, true)
				continue
			}
		}
		pending = append(pending, i)
	}
	e.next = func(context.Context) (int, bool) {
		if len(pending) == 0 {
			return 0, false
		}
		ci := pending[0]
		pending = pending[1:]
		return ci, true
	}
	e.keep = func(ci int, cell *CellSummary) { grid.Cells[ci] = *cell }
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return grid, nil
}
