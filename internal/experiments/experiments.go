// Package experiments defines the reproduction harness: one experiment
// per quantitative claim of the paper (the paper is a theory paper with
// no numbered tables or figures, so the theorems and named claims take
// their place — see DESIGN.md section 5 for the index).  Each experiment
// produces tables and ASCII figures and a pass/fail style note comparing
// the measured shape against the paper's claim.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/report"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs CI-sized versions (seconds).
	Quick Scale = iota
	// Full runs paper-sized versions (minutes).
	Full
)

// String returns the scale name.
func (s Scale) String() string {
	if s == Quick {
		return "quick"
	}
	return "full"
}

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Quick {
		return q
	}
	return f
}

// Output is the rendered result of one experiment.
type Output struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being reproduced
	Tables []*report.Table
	Plots  []string
	Notes  []string
}

// String renders the full experiment output.
func (o *Output) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", o.ID, o.Title)
	fmt.Fprintf(&b, "Paper claim: %s\n\n", o.Claim)
	for _, t := range o.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, p := range o.Plots {
		b.WriteString(p)
		b.WriteByte('\n')
	}
	for _, n := range o.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(scale Scale, seed uint64) *Output
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", "backlog bound (Theorem 11)", E1Backlog},
		{"E2", "packet latency (Theorem 15)", E2Latency},
		{"E3", "batch completion (Theorem 16)", E3Batch},
		{"E4", "throughput vs baselines (headline claim)", E4Throughput},
		{"E5", "error-epoch rarity (Lemmas 3-4)", E5ErrorEpochs},
		{"E6", "potential-function drift (Section 4, Lemmas 5-9)", E6Potential},
		{"E7", "contention control (Section 3)", E7Contention},
		{"E8", "decoding-window decodability (Section 2 practicalities)", E8Decodability},
		{"E9", "ZigZag collision recovery (Section 1 motivation)", E9ZigZag},
		{"E10", "design ablations (Section 3 highlights)", E10Ablations},
		{"E11", "stable-rate frontier (stability framing)", E11StableRate},
		{"E12", "decoding-event detector validation (Definition 1)", E12Detector},
		{"E13", "jamming robustness (beyond-model failure injection)", E13Jamming},
		{"E14", "decoding-window cap sensitivity (Section 2 practicalities)", E14WindowCap},
		{"E15", "large-batch scaling (Theorem 16 asymptotics)", E15Scaling},
		{"E16", "channel regimes: coded vs capture vs no-CD (related work)", E16Regimes},
	}
}

// ByID returns the runner with the given ID (case-insensitive), or nil.
func ByID(id string) *Runner {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return &r
		}
	}
	return nil
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
