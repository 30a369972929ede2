package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/sim"
)

// execDelay is a test hook run at the start of every trial (deliberately
// slow cells for lease-renewal and scheduling tests).  Always nil outside
// tests.
var execDelay func(owner string, cell, trial int)

// plan is a validated spec's canonical expansion with every cell's trial
// seeds and content identity: what Run, RunWorker and Assemble all
// derive before they touch a cell.
type plan struct {
	spec  *Spec
	cells []Scenario
	seeds []uint64 // the full grid's trial seeds, cell-major
	ids   []string
}

func newPlan(spec *Spec) *plan {
	cells := spec.Expand()
	p := &plan{spec: spec, cells: cells, seeds: spec.jobSeeds(len(cells)), ids: make([]string, len(cells))}
	for i, sc := range cells {
		p.ids[i] = cellID(sc, spec, p.cellSeeds(i))
	}
	return p
}

// cellSeeds returns cell i's slice of the full grid's seed list, so any
// subset of cells executes exactly as inside an unsharded run.
func (p *plan) cellSeeds(i int) []uint64 {
	return p.seeds[i*p.spec.Trials : (i+1)*p.spec.Trials]
}

// executor is the one cell executor behind every scheduling policy.  The
// calling goroutine dispatches: it waits for one of Options.Parallelism
// trial slots to free, hands it the next trial of the current cell, and
// asks next for a new cell only once every trial of the current one has
// started.  Cells therefore overlap and no slot idles while work is left,
// yet a worker claims a cell only into a free slot, so it never holds
// more than Parallelism unfinished leases.  The goroutine that lands a
// cell's last trial completes the cell (see land) while the other slots
// keep running.  Each slot owns a sim.Runner, which runs the slot's
// trials one after another on the same engine buffers.
type executor struct {
	*plan
	opts *Options
	// owner and ttl name a work-stealing worker's leases (RunWorker):
	// with ttl > 0, every cell next returns is re-claimed at ttl/2 until
	// it lands.
	owner string
	ttl   time.Duration
	// next yields the grid position of the next cell to execute, or
	// false when none is left, ctx is done, or the run failed.  Only the
	// dispatcher calls it, and only while it holds a free slot.
	next func(ctx context.Context) (int, bool)
	// keep, if set, receives each executed cell's summary once it has
	// persisted (Run keeps them; a worker leaves them in the store).
	keep func(ci int, cell *CellSummary)

	mu               sync.Mutex // serializes the counts below and OnCell
	done, total      int
	executed, loaded int

	failOnce sync.Once
	failed   chan struct{} // closed by the first fail
	err      error

	quit     chan struct{} // closed once the last trial has finished
	renewals sync.WaitGroup
}

// cellRun is one cell in flight.
type cellRun struct {
	ci     int
	next   int          // next trial to dispatch (dispatcher only)
	left   atomic.Int32 // trials not yet finished
	trials []trialOut
	landed chan struct{} // closed when the cell lands; ends its lease renewal
}

func newExecutor(p *plan, opts *Options, total int) *executor {
	return &executor{plan: p, opts: opts, total: total, failed: make(chan struct{}), quit: make(chan struct{})}
}

// run executes cells until next runs dry, ctx is done, or the first
// error, then waits for the trials in flight — completed cells persist;
// a partly dispatched cell is abandoned, its lease left to lapse as
// after a kill — and for every lease renewal to stop.  It returns the
// first error.
func (e *executor) run(ctx context.Context) error {
	par := e.opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	slots := make(chan *sim.Runner, par) // the free trial slots
	for range par {
		slots <- new(sim.Runner)
	}
	var trials sync.WaitGroup
	var cur *cellRun
	for {
		r := <-slots // wait for a free trial slot
		if e.stopped(ctx) {
			slots <- r
			break
		}
		if cur == nil || cur.next == e.spec.Trials {
			ci, ok := e.next(ctx)
			if !ok || e.stopped(ctx) {
				slots <- r
				break
			}
			cur = e.start(ci)
		}
		c, t := cur, cur.next
		cur.next++
		trials.Add(1)
		go func() {
			defer trials.Done()
			e.runTrial(c, t, r)
			// Freed only after land's Put: the lease bound relies on
			// the landing goroutine keeping its slot until the record
			// is written.
			slots <- r
		}()
	}
	trials.Wait()
	close(e.quit)
	e.renewals.Wait()
	return e.err
}

func (e *executor) stopped(ctx context.Context) bool {
	select {
	case <-e.failed:
		return true
	default:
		return ctx.Err() != nil
	}
}

// fail records the run's first error and stops new claims and trials.
func (e *executor) fail(err error) {
	e.failOnce.Do(func() {
		e.err = err
		close(e.failed)
	})
}

// start opens a cell's countdown and, under a lease, its renewal.
func (e *executor) start(ci int) *cellRun {
	c := &cellRun{ci: ci, trials: make([]trialOut, e.spec.Trials)}
	c.left.Store(int32(e.spec.Trials))
	if e.ttl > 0 {
		c.landed = make(chan struct{})
		e.renewals.Add(1)
		go e.renew(e.ids[ci], c.landed)
	}
	return c
}

// renew re-claims one cell at half the lease TTL until it lands or the
// run ends, so a cell slower than the TTL does not look dead.  Renewal
// failures are deliberately ignored: losing the lease costs at worst a
// duplicate execution, which content-addressed records absorb.
func (e *executor) renew(id string, landed <-chan struct{}) {
	defer e.renewals.Done()
	t := time.NewTicker(e.ttl / 2)
	defer t.Stop()
	for {
		select {
		case <-landed:
			return
		case <-e.quit:
			return
		case <-t.C:
			_, _ = e.opts.Cache.Claim(id, e.owner, e.ttl)
		}
	}
}

// runTrial executes trial t of a cell on the slot's Runner, and lands
// the cell if it was the last trial to finish.
func (e *executor) runTrial(c *cellRun, t int, r *sim.Runner) {
	sc := e.cells[c.ci]
	seed := e.cellSeeds(c.ci)[t]
	if execDelay != nil {
		execDelay(e.owner, c.ci, t)
	}
	// errCount receives the number of error epochs (Definition 2) a dba
	// trial observes.
	var errCount int64
	b, err := e.spec.desc(sc).Build(seed, seed^protoSeedSalt, protocol.EpochObserverFunc(func(info protocol.EpochInfo) {
		if info.Error {
			errCount++
		}
	}))
	if err != nil {
		panic(err) // Validate checks every cell
	}
	c.trials[t] = reduceTrial(r.Run(b.Config, b.Proto, b.Arrival), errCount)
	// Each slot of c.trials has one writer; the countdown orders every
	// write before the landing goroutine's reads.
	if c.left.Add(-1) == 0 {
		e.land(c)
	}
}

// land completes a cell whose last trial just finished: summarize it,
// drop the trial Results (so memory stays flat however large the grid),
// persist the record, end the lease renewal, and report the cell.
func (e *executor) land(c *cellRun) {
	cell := summarize(e.cells[c.ci], c.trials)
	c.trials = nil
	var err error
	if e.opts.Cache != nil {
		err = putCell(e.opts.Cache, e.ids[c.ci], c.ci, e.cells[c.ci].Key(), cell)
	}
	if c.landed != nil {
		close(c.landed)
	}
	if err != nil {
		e.fail(err)
		return
	}
	if e.keep != nil {
		e.keep(c.ci, &cell)
	}
	e.report(&cell, false)
}

// report counts one completed cell, executed or loaded, and tells
// OnCell.
func (e *executor) report(cell *CellSummary, cached bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.done++
	if cached {
		e.loaded++
	} else {
		e.executed++
	}
	if e.opts.OnCell != nil {
		e.opts.OnCell(e.done, e.total, cell, cached)
	}
}
