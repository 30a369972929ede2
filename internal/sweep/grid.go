package sweep

import (
	"encoding/json"
	"fmt"

	"repro/internal/report"
	"repro/internal/stats"
)

// Agg summarizes one metric across a cell's trials.
type Agg struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func aggOf(s stats.Summary) Agg {
	return Agg{Mean: s.Mean(), Stddev: s.Stddev(), Min: s.Min(), Max: s.Max()}
}

// SlotMix is the channel's slot-class and event accounting summed over a
// cell's trials.
type SlotMix struct {
	Silent int64 `json:"silent"`
	Good   int64 `json:"good"`
	Bad    int64 `json:"bad"`
	Jammed int64 `json:"jammed"`
	Events int64 `json:"events"`
}

// CellSummary aggregates one cell's trials.
type CellSummary struct {
	Scenario
	Trials int `json:"trials"`

	// Throughput is per-trial completion throughput (delivered per slot
	// from first arrival to last delivery).
	Throughput Agg `json:"throughput"`
	// MaxBacklog is the per-trial peak backlog.
	MaxBacklog Agg `json:"max_backlog"`
	// LatencyP50 and LatencyP99 aggregate per-trial latency quantiles
	// over trials that delivered at least one packet.
	LatencyP50 Agg `json:"latency_p50"`
	LatencyP99 Agg `json:"latency_p99"`

	// Totals across all trials of the cell.
	Arrivals  int64 `json:"arrivals"`
	Delivered int64 `json:"delivered"`
	Pending   int64 `json:"pending"`
	Elapsed   int64 `json:"elapsed"`
	// ErrorEpochs counts Definition 2 error epochs (dba only; 0 otherwise).
	ErrorEpochs int64   `json:"error_epochs"`
	Slots       SlotMix `json:"slots"`
}

// summarize folds one cell's trial results into a CellSummary.
func summarize(sc Scenario, trials []trialOut) CellSummary {
	cell := CellSummary{Scenario: sc, Trials: len(trials)}
	var thpt, backlog, p50, p99 stats.Summary
	for _, out := range trials {
		r := &out.res
		thpt.Add(r.CompletionThroughput())
		backlog.Add(float64(r.MaxBacklog))
		if out.latency != nil {
			p50.Add(out.latency[0])
			p99.Add(out.latency[1])
		}
		cell.Arrivals += r.Arrivals
		cell.Delivered += r.Delivered
		cell.Pending += int64(r.Pending)
		cell.Elapsed += r.Elapsed
		cell.ErrorEpochs += out.errEpochs
		cell.Slots.Silent += r.Channel.SilentSlots
		cell.Slots.Good += r.Channel.GoodSlots
		cell.Slots.Bad += r.Channel.BadSlots
		cell.Slots.Jammed += r.Channel.JammedSlots
		cell.Slots.Events += r.Channel.Events
	}
	cell.Throughput = aggOf(thpt)
	cell.MaxBacklog = aggOf(backlog)
	cell.LatencyP50 = aggOf(p50)
	cell.LatencyP99 = aggOf(p99)
	return cell
}

// Grid is the result of a sweep: the (normalized) spec it ran and one
// summary per cell, in canonical expansion order.
type Grid struct {
	Spec  Spec          `json:"spec"`
	Cells []CellSummary `json:"cells"`
}

// JSON renders the grid as indented, deterministic JSON: cell order is
// the canonical expansion order and no timestamps or host details are
// included, so reruns with the same spec and seed are byte-identical.
func (g *Grid) JSON() ([]byte, error) {
	return json.MarshalIndent(g, "", "  ")
}

// Table renders one row per cell with the headline metrics.
func (g *Grid) Table() *report.Table {
	title := "sweep"
	if g.Spec.Name != "" {
		title = fmt.Sprintf("sweep %s", g.Spec.Name)
	}
	t := report.NewTable(title,
		"model", "protocol", "arrival", "kappa", "rate", "jammer", "adversary", "trials",
		"throughput", "maxBacklog", "p50", "p99",
		"delivered", "pending", "errorEpochs", "silent", "good", "bad", "jammed")
	for i := range g.Cells {
		c := &g.Cells[i]
		t.AddRow(c.Model, c.Protocol, c.Arrival, c.Kappa, c.Rate, c.Jammer, c.Adversary, c.Trials,
			c.Throughput.Mean, c.MaxBacklog.Mean, c.LatencyP50.Mean, c.LatencyP99.Mean,
			c.Delivered, c.Pending, c.ErrorEpochs,
			c.Slots.Silent, c.Slots.Good, c.Slots.Bad, c.Slots.Jammed)
	}
	return t
}

// CSV renders the grid's table as CSV.
func (g *Grid) CSV() string { return g.Table().CSV() }

// BenchCell is one row of the compact benchmark artifact: the headline
// metrics a performance trajectory is tracked by.
type BenchCell struct {
	Key         string  `json:"key"`
	Throughput  float64 `json:"throughput"`
	MaxBacklog  float64 `json:"max_backlog"`
	LatencyP99  float64 `json:"latency_p99"`
	ErrorEpochs int64   `json:"error_epochs"`
}

// BenchArtifact is the diff-friendly benchmark summary: just the spec
// identity and per-cell headline means, small enough to commit and
// byte-stable across reruns of the same spec and seed.
type BenchArtifact struct {
	Name  string      `json:"name,omitempty"`
	Seed  uint64      `json:"seed"`
	Cells []BenchCell `json:"cells"`
}

// Bench reduces the grid to its benchmark artifact.
func (g *Grid) Bench() BenchArtifact {
	b := BenchArtifact{Name: g.Spec.Name, Seed: g.Spec.Seed, Cells: make([]BenchCell, len(g.Cells))}
	for i := range g.Cells {
		c := &g.Cells[i]
		b.Cells[i] = BenchCell{
			Key:         c.Key(),
			Throughput:  c.Throughput.Mean,
			MaxBacklog:  c.MaxBacklog.Mean,
			LatencyP99:  c.LatencyP99.Mean,
			ErrorEpochs: c.ErrorEpochs,
		}
	}
	return b
}
