//go:build race

package scenario

// raceEnabled reports a build under the race detector, which drops
// sync.Pool items at random: fmt then allocates a varying number of
// objects per call, and allocation counts are no longer exact.
const raceEnabled = true
