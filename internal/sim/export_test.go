package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// ResultDigest exports resultDigest to the digest-table tests, which
// live in package sim_test so they can build their runs through
// internal/scenario.
var ResultDigest = resultDigest

// resultDigest is the SHA-256 of a Result's JSON together with the
// latency state encoding/json cannot see (the Summary moments and the
// reservoir sample), so equal digests mean equal Results.
func resultDigest(r *Result) string {
	var sample []float64
	if r.LatencySample != nil {
		sample = r.LatencySample.Values()
	}
	b, err := json.Marshal(struct {
		Result                          *Result
		LatN                            int64
		LatMean, LatVar, LatMin, LatMax float64
		Sample                          []float64
	}{r, r.Latency.N(), r.Latency.Mean(), r.Latency.Variance(), r.Latency.Min(), r.Latency.Max(), sample})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
