//go:build !race

package scenario

// raceEnabled reports a build under the race detector (see race_test.go).
const raceEnabled = false
