//go:build race

package sim

// raceAllocMB is what a build under the race detector adds to the bytes
// TestLargeBatchBoundedBookkeeping's batch allocates (41.3 MB without
// it, 61.4 MB with it): there slices.Grow's append of make(n) allocates
// the temporary the compiler otherwise elides, so every batch-sized
// buffer is allocated twice.
const raceAllocMB = 22
