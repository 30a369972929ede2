package sim

import (
	"runtime"
	"sync"

	"repro/internal/rng"
	"repro/internal/stats"
)

// TrialFunc builds and runs one independent trial from a seed, returning
// its result.  Implementations must construct a fresh protocol, arrival
// process, and channel medium per call (they are stateful; a Medium may
// only be shared across trials after Reset, never concurrently).
type TrialFunc func(trial int, seed uint64) *Result

// TrialSeeds derives the n trial seeds RunTrials assigns from baseSeed:
// one rng stream, read sequentially.  Exposed so a caller running a
// *subset* of a trial grid (a sweep shard, a cache-resumed sweep) can
// seed each trial exactly as the full run would — the property that
// makes sharded and resumed artifacts byte-identical to unsharded ones.
func TrialSeeds(n int, baseSeed uint64) []uint64 {
	if n <= 0 {
		return nil
	}
	seeds := make([]uint64, n)
	seedGen := rng.New(baseSeed)
	for i := range seeds {
		seeds[i] = seedGen.Uint64()
	}
	return seeds
}

// RunTrials executes n independent trials, fanning them out over up to
// `parallelism` goroutines (0 = GOMAXPROCS).  Trial seeds are derived
// deterministically from baseSeed (see TrialSeeds), so results are
// reproducible regardless of scheduling, and results are returned
// indexed by trial.
func RunTrials(n int, baseSeed uint64, parallelism int, f TrialFunc) []*Result {
	return RunSeededTrials(TrialSeeds(n, baseSeed), parallelism, f)
}

// RunSeededTrials executes one trial per explicit seed, fanning them out
// over up to `parallelism` goroutines (0 = GOMAXPROCS).  It is the
// subset-capable core of RunTrials: seeds[i] drives trial i, whatever
// grid position that trial came from.
func RunSeededTrials(seeds []uint64, parallelism int, f TrialFunc) []*Result {
	n := len(seeds)
	if n == 0 {
		return nil
	}
	results := make([]*Result, n)
	ForEach(n, parallelism, func(i int) { results[i] = f(i, seeds[i]) })
	return results
}

// ForEach invokes fn(i) for every i in [0, n), fanning the calls out
// over up to `parallelism` goroutines (0 = GOMAXPROCS), and returns
// once all calls have completed.  It is the repository's one
// worker-pool implementation: trial fan-out and the experiments runner
// both go through it.  fn must be safe for concurrent calls with
// distinct i.
func ForEach(n, parallelism int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	if parallelism == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Aggregate summarizes a metric over trial results.
func Aggregate(results []*Result, metric func(*Result) float64) stats.Summary {
	var s stats.Summary
	for _, r := range results {
		if r != nil {
			s.Add(metric(r))
		}
	}
	return s
}
