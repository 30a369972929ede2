//go:build !race

package sim

// raceAllocMB is what a build under the race detector adds to the bytes
// a batch allocates (see race_test.go).
const raceAllocMB = 0
