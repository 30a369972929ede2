package sweep

import (
	"context"
	"fmt"
	"sort"
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
	// Workers sets sim.Config.Workers (the staged intra-trial engine)
	// for trials whose spec leaves its own Workers unset.  It is an
	// execution-side knob of the machine running the sweep: results are
	// bit-identical at any value, so — like Parallelism — it never
	// enters cell identities or artifacts.
	Workers int
	// OnCell, if set, is called as each selected cell completes —
	// executed, or loaded from the cache (under Resume, or by a worker) —
	// with the number of completed cells and the selected total.  Calls
	// are serialized.  Executed cells report in completion order, which
	// need not be grid order since cells overlap; Run reports its loaded
	// cells first, in grid order, while a worker's loaded cells may
	// interleave with its executed ones.
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
}

// trialOut carries one trial's result plus the side-channel measurements
// the sim.Result does not hold.
type trialOut struct {
	res       *sim.Result
	errEpochs int64
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

// matches reports whether a loaded record is trustworthy for the given
// identity and scenario key under the current schema.
func (r *CellRecord) matches(id, key string) bool {
	return r.SchemaVersion == SchemaVersion && r.ID == id && r.Key == key
}

// loadCell fetches and verifies one cell from a backend.  Absent,
// corrupt, foreign, and stale-schema records are all misses.
func loadCell(b cache.Backend, id, key string) (CellSummary, bool, error) {
	var rec CellRecord
	ok, err := b.Get(id, &rec)
	if err != nil {
		return CellSummary{}, false, err
	}
	if !ok || !rec.matches(id, key) {
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
func Run(ctx context.Context, spec Spec, opts Options) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := newPlan(&spec)
	out, err := runCells(ctx, p, Shard{}.Indices(len(p.cells)), opts)
	if err != nil {
		return nil, err
	}
	grid := &Grid{Spec: spec, Cells: make([]CellSummary, len(p.cells))}
	for i := range out {
		grid.Cells[out[i].Index] = out[i].Cell
	}
	return grid, nil
}

// RunShard executes one shard of the spec's grid — the cells
// sh.Indices selects from the canonical expansion — seeding each trial
// exactly as an unsharded run would, and returns the shard artifact
// Merge reassembles.  Options.Cache/Resume apply per cell, so shards
// and resumed runs share one cache.  Cancellation follows Run's
// contract.
func RunShard(ctx context.Context, spec Spec, sh Shard, opts Options) (*ShardResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	p := newPlan(&spec)
	out, err := runCells(ctx, p, sh.Indices(len(p.cells)), opts)
	if err != nil {
		return nil, err
	}
	return &ShardResult{
		SchemaVersion: SchemaVersion,
		SpecHash:      hash,
		Spec:          spec,
		Shard:         sh,
		TotalCells:    len(p.cells),
		Cells:         out,
	}, nil
}

// runCells executes (or, under Resume, loads) the selected cells of a
// plan — the static scheduling policy: the caller decides up front
// which cells this process owns (a shard's round-robin slice, or the
// whole grid) and every other cell is someone else's problem.  The
// work-stealing policy in steal.go instead claims cells from the shared
// backend at run time; both feed the same executor, so the policies
// differ only in who executes a cell, never in what the cell contains.
// selected holds ascending positions into the plan's cells.
func runCells(ctx context.Context, p *plan, selected []int, opts Options) ([]IndexedCell, error) {
	if opts.Resume && opts.Cache == nil {
		return nil, fmt.Errorf("sweep: Resume requires a Cache")
	}
	e := newExecutor(p, &opts, len(selected))
	out := make([]IndexedCell, len(selected))
	var pending []int // grid positions that need execution
	for si, ci := range selected {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[si] = IndexedCell{Index: ci, ID: p.ids[ci]}
		if opts.Resume {
			// The identity hash names the record, but trust nothing: a
			// record is reused only if its stored identity agrees with the
			// one this spec derives for this cell (loadCell re-checks).
			cell, ok, err := loadCell(opts.Cache, p.ids[ci], p.cells[ci].Key())
			if err != nil {
				return nil, err
			}
			if ok {
				// Cache hits report first, in grid order; executed cells
				// follow as they land.
				out[si].Cell = cell
				e.report(&cell, true)
				continue
			}
		}
		pending = append(pending, ci)
	}
	e.next = func(context.Context) (int, bool) {
		if len(pending) == 0 {
			return 0, false
		}
		ci := pending[0]
		pending = pending[1:]
		return ci, true
	}
	e.keep = func(ci int, cell *CellSummary) {
		out[sort.SearchInts(selected, ci)].Cell = *cell
	}
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
