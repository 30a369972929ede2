package sweep

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
)

// DefaultLeaseTTL is the claim lifetime a worker uses when Options
// leaves LeaseTTL unset.  It trades preemption latency (a dead worker's
// cells stay unstealable this long) against duplicate work (a cell
// slower than the TTL gets re-claimed while still running — benign but
// wasted); two minutes comfortably covers the committed grids' cells.
const DefaultLeaseTTL = 2 * time.Minute

// defaultPoll is the rescan interval when every missing cell is leased
// to another worker.
const defaultPoll = 100 * time.Millisecond

// WorkerResult summarizes one work-stealing worker's participation in
// draining a grid.  It is a progress report, not a grid artifact: the
// grid itself is assembled from the shared backend (Assemble), which is
// what makes workers interchangeable and killable.
type WorkerResult struct {
	// Owner is the lease label the worker claimed cells under.
	Owner string `json:"owner"`
	// Total is the number of cells the worker's shard holds (the whole
	// grid's without Options.Shard).
	Total int `json:"total_cells"`
	// Executed counts the cells this worker claimed and computed.
	Executed int `json:"executed"`
	// Loaded counts the cells this worker found already completed in the
	// backend (by an earlier run or another worker).
	Loaded int `json:"loaded"`
}

// RunWorker drains one grid through the work-stealing scheduling
// policy: the worker scans the grid for cells whose content-addressed
// records are missing from the shared backend, claims one with a TTL
// lease whenever one of its Options.Parallelism trial slots is free,
// executes it, and persists the record.  Workers never talk to each
// other — the backend's records and leases are the entire coordination
// protocol — so any number of heterogeneous machines can join, leave,
// or crash mid-run: a dead worker's leases expire and its cells are
// re-claimed by whoever gets there first.  Options.Shard narrows the
// scan to one static slice of the grid, so workers with stores of
// their own can split a grid without sharing anything.
//
// The function returns when every cell of the worker's shard has a
// valid record in the backend (some computed here, the rest observed),
// or when ctx is cancelled, or on the first backend error.
// Cancellation and errors stop new claims and trials; trials in flight
// finish and their completed cells persist, while a partly run cell's
// lease is left to lapse.  Cell identities, trial seeds, skip rules, and summaries are
// exactly those of sweep.Run — scheduling policy decides who computes a
// cell, never what it contains — so Assemble over the drained backend
// is byte-identical to an unsharded run.
func RunWorker(ctx context.Context, spec Spec, opts Options) (*WorkerResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Shard.Validate(); err != nil {
		return nil, err
	}
	if opts.Cache == nil {
		return nil, fmt.Errorf("sweep: work-stealing needs a shared Cache backend")
	}
	owner := opts.Owner
	if owner == "" {
		owner = fmt.Sprintf("worker-%d", os.Getpid())
	}
	ttl := opts.LeaseTTL
	if ttl == 0 {
		ttl = DefaultLeaseTTL
	}
	poll := opts.Poll
	if poll == 0 {
		poll = defaultPoll
	}

	p := newPlan(&spec)
	// The scan: taken marks cells outside the shard, loaded from the
	// backend, or claimed here.  Each call resumes where the last one
	// stopped; a pass that takes nothing means every missing cell is
	// leased elsewhere.
	taken := make([]bool, len(p.cells))
	left := 0
	for i := range taken {
		taken[i] = !opts.Shard.owns(i)
		if !taken[i] {
			left++
		}
	}
	total := left
	e := newExecutor(p, &opts, total)
	e.owner, e.ttl = owner, ttl
	scan, progressed := 0, false
	e.next = func(ctx context.Context) (int, bool) {
		for {
			for ; scan < len(taken); scan++ {
				if taken[scan] {
					continue
				}
				if e.stopped(ctx) {
					return 0, false
				}
				id := p.ids[scan]
				cell, ok, err := loadCell(opts.Cache, id, p.cells[scan].Key())
				if err != nil {
					e.fail(err)
					return 0, false
				}
				if ok {
					taken[scan], left, progressed = true, left-1, true
					e.report(&cell, true)
					continue
				}
				claimed, err := opts.Cache.Claim(id, owner, ttl)
				if err != nil {
					e.fail(err)
					return 0, false
				}
				if claimed {
					// A worker killed from here until the record lands is
					// the preemption case: its lease expires after ttl and
					// the cell is re-claimed by a surviving worker.
					taken[scan], left, progressed = true, left-1, true
					scan++
					return scan - 1, true
				}
				// Another owner holds the lease (or just completed the
				// cell; the next pass will load it).  Move on — there may
				// be unclaimed cells further along.
			}
			if left == 0 {
				return 0, false // every cell is loaded or in flight here
			}
			if !progressed {
				// Every missing cell is leased to another live worker:
				// wait for their records to land or their leases to
				// expire.
				select {
				case <-ctx.Done():
					return 0, false
				case <-e.failed:
					return 0, false
				case <-time.After(poll):
				}
			}
			scan, progressed = 0, false
		}
	}
	err := e.run(ctx)
	res := &WorkerResult{Owner: owner, Total: total, Executed: e.executed, Loaded: e.loaded}
	if err != nil {
		return res, err
	}
	if e.done < total {
		return res, ctx.Err()
	}
	return res, nil
}

// Assemble reassembles the full Grid from a backend that workers (shard
// workers, work-stealing workers, cached runs — they all share one
// record namespace) have populated.  It is the one way a distributed
// grid comes back together.  Every cell's record must carry the
// current SchemaVersion, the identity the spec derives for that
// position (scenario key, engine knobs, trial seeds), and that
// position's scenario key; a record that is absent, unreadable, stale
// or foreign counts as missing.  The returned Grid renders
// byte-identically to an unsharded Run of the same spec.  Missing cells
// are an error naming how much of the grid is absent and the first
// missing cell — run more workers, or wait for the ones still going.
// Cancel ctx to stop between cells (useful against a slow remote
// backend).
func Assemble(ctx context.Context, spec Spec, backend cache.Backend) (*Grid, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, fmt.Errorf("sweep: assemble needs a backend")
	}
	p := newPlan(&spec)
	grid := &Grid{Spec: spec, Cells: make([]CellSummary, len(p.cells))}
	firstMissing, missing := -1, 0
	for i, sc := range p.cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cell, ok, err := loadCell(backend, p.ids[i], sc.Key())
		if err != nil {
			return nil, err
		}
		if !ok {
			if firstMissing < 0 {
				firstMissing = i
			}
			missing++
			continue
		}
		grid.Cells[i] = cell
	}
	if missing > 0 {
		return nil, fmt.Errorf("sweep: backend holds %d of %d cells; first missing cell %d (%s) — workers still running, or not enough ran",
			len(p.cells)-missing, len(p.cells), firstMissing, p.cells[firstMissing].Key())
	}
	return grid, nil
}
