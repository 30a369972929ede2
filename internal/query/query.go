// Package query is the analytics layer over the sweep subsystem's
// content-addressed artifacts: it loads completed cells from any source
// that holds them — a grid JSON, a committed benchmark artifact
// (BENCH_sweep.json), a cell-cache directory, or a live crnserve
// backend — into one uniform shape, filters them by scenario
// coordinates, and diffs them across runs and commits.  Reports render
// as deterministic markdown or CSV: cells are sorted by key, floats use
// shortest-exact formatting, and nothing host- or time-dependent is
// emitted, so the same inputs always produce the same bytes and reports
// are diffable artifacts themselves.
package query

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
	"repro/internal/sweep"
)

// Cell is the query layer's uniform view of one completed grid cell:
// its scenario coordinates plus the headline metrics every source
// carries.  Sources differ in fidelity — grids and cell stores carry
// full summaries (trial counts, p50), the committed bench artifact only
// the headline means — so Trials is 0 and LatencyP50 NaN when the
// source lacks them.
type Cell struct {
	sweep.Scenario
	Trials      int
	Throughput  float64
	MaxBacklog  float64
	LatencyP50  float64
	LatencyP99  float64
	ErrorEpochs int64
}

// Set is a loaded collection of cells, sorted by key and unique per
// key — one run's (or one artifact's) view of a grid.
type Set struct {
	// Label names the source (the path or URL it was loaded from).
	Label string
	// Kind is "grid", "bench", or "store".
	Kind string
	// Cells is sorted by Scenario key.
	Cells []Cell
	// Skipped counts store records that were corrupt, foreign, or minted
	// under another schema version and therefore excluded.
	Skipped int
}

// fromSummary converts a sweep cell summary.
func fromSummary(cs *sweep.CellSummary) Cell {
	return Cell{
		Scenario:    cs.Scenario,
		Trials:      cs.Trials,
		Throughput:  cs.Throughput.Mean,
		MaxBacklog:  cs.MaxBacklog.Mean,
		LatencyP50:  cs.LatencyP50.Mean,
		LatencyP99:  cs.LatencyP99.Mean,
		ErrorEpochs: cs.ErrorEpochs,
	}
}

// FromGrid views a completed sweep grid as a Set.
func FromGrid(g *sweep.Grid, label string) *Set {
	s := &Set{Label: label, Kind: "grid", Cells: make([]Cell, 0, len(g.Cells))}
	for i := range g.Cells {
		s.Cells = append(s.Cells, fromSummary(&g.Cells[i]))
	}
	s.sort()
	return s
}

// FromBench views a committed benchmark artifact (BENCH_sweep.json) as
// a Set.  Bench cells carry only headline means; their keys decode back
// into scenario coordinates via ParseKey.
func FromBench(b *sweep.BenchArtifact, label string) (*Set, error) {
	s := &Set{Label: label, Kind: "bench", Cells: make([]Cell, 0, len(b.Cells))}
	for i := range b.Cells {
		bc := &b.Cells[i]
		sc, err := ParseKey(bc.Key)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", label, err)
		}
		s.Cells = append(s.Cells, Cell{
			Scenario:    sc,
			LatencyP50:  math.NaN(),
			Throughput:  bc.Throughput,
			MaxBacklog:  bc.MaxBacklog,
			LatencyP99:  bc.LatencyP99,
			ErrorEpochs: bc.ErrorEpochs,
		})
	}
	s.sort()
	return s, nil
}

// FromBackend loads every valid cell record from a cache backend (a
// local store directory or an httpstore client).  Records that are
// corrupt, foreign, or from another schema version are counted in
// Skipped, mirroring the executor's treat-damage-as-miss rule.  Two
// records with the same scenario key but different identities mean the
// store holds cells from more than one spec (different horizons, seeds,
// or trial counts) — that is an error, because a Set must be one
// grid's view; query such stores through their grid artifacts instead.
func FromBackend(b cache.Backend, label string) (*Set, error) {
	ids, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", label, err)
	}
	s := &Set{Label: label, Kind: "store"}
	byKey := make(map[string]string, len(ids)) // key → id that claimed it
	for _, id := range ids {
		var rec sweep.CellRecord
		ok, err := b.Get(id, &rec)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", label, err)
		}
		if !ok || !rec.Valid(id) {
			s.Skipped++
			continue
		}
		if prev, dup := byKey[rec.Key]; dup {
			return nil, fmt.Errorf("query: %s holds two records for cell %s (%.12s… and %.12s…): the store mixes specs; query a grid artifact instead",
				label, rec.Key, prev, id)
		}
		byKey[rec.Key] = id
		s.Cells = append(s.Cells, fromSummary(&rec.Cell))
	}
	s.sort()
	return s, nil
}

// Load reads a Set from any supported source, by shape: an http(s) URL
// is a crnserve backend, a directory is a cell store, a JSON file with
// a "spec" field is a grid artifact, and one without is a benchmark
// artifact.
func Load(path string) (*Set, error) {
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		client, err := httpstore.NewClient(path)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		return FromBackend(client, path)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if fi.IsDir() {
		store, err := cache.Open(path)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		return FromBackend(store, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	var probe struct {
		Spec  *json.RawMessage `json:"spec"`
		Cells *json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("query: %s is not a JSON artifact: %v", path, err)
	}
	if probe.Cells == nil {
		return nil, fmt.Errorf("query: %s has no cells (want a sweep grid, a BENCH_sweep artifact, a cell-store directory, or a crnserve URL)", path)
	}
	if probe.Spec != nil {
		var g sweep.Grid
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("query: %s: bad grid artifact: %v", path, err)
		}
		return FromGrid(&g, path), nil
	}
	var b sweep.BenchArtifact
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("query: %s: bad benchmark artifact: %v", path, err)
	}
	return FromBench(&b, path)
}

func (s *Set) sort() {
	sort.Slice(s.Cells, func(i, j int) bool { return s.Cells[i].Key() < s.Cells[j].Key() })
}

// ParseKey decodes a scenario key ("model/protocol/arrival/k=K/rate=R/
// jam=J/adv=A") back into its coordinates.  Jammer and adversary
// descriptors may themselves contain slashes (periodic:16/4,
// reactive:4/48), so the tail is re-joined around the jam=/adv=
// markers rather than split positionally.
func ParseKey(key string) (sweep.Scenario, error) {
	var sc sweep.Scenario
	parts := strings.Split(key, "/")
	if len(parts) < 7 {
		return sc, fmt.Errorf("malformed cell key %q", key)
	}
	sc.Model, sc.Protocol, sc.Arrival = parts[0], parts[1], parts[2]
	if !strings.HasPrefix(parts[3], "k=") || !strings.HasPrefix(parts[4], "rate=") || !strings.HasPrefix(parts[5], "jam=") {
		return sc, fmt.Errorf("malformed cell key %q", key)
	}
	k, err := strconv.Atoi(parts[3][len("k="):])
	if err != nil {
		return sc, fmt.Errorf("malformed cell key %q: bad kappa: %v", key, err)
	}
	sc.Kappa = k
	rate, err := strconv.ParseFloat(parts[4][len("rate="):], 64)
	if err != nil {
		return sc, fmt.Errorf("malformed cell key %q: bad rate: %v", key, err)
	}
	if math.IsNaN(rate) {
		// A NaN rate equals no rate, itself included, so the key could
		// never select or match its cell.
		return sc, fmt.Errorf("malformed cell key %q: NaN rate", key)
	}
	sc.Rate = rate
	advAt := -1
	for i := 6; i < len(parts); i++ {
		if strings.HasPrefix(parts[i], "adv=") {
			advAt = i
			break
		}
	}
	if advAt < 0 {
		return sc, fmt.Errorf("malformed cell key %q: no adversary coordinate", key)
	}
	sc.Jammer = strings.TrimPrefix(strings.Join(parts[5:advAt], "/"), "jam=")
	sc.Adversary = strings.TrimPrefix(strings.Join(parts[advAt:], "/"), "adv=")
	if sc.Jammer == "" || sc.Adversary == "" {
		return sc, fmt.Errorf("malformed cell key %q", key)
	}
	return sc, nil
}

// Selector filters cells by scenario coordinates.  Parse one from
// "field=value" pairs; an empty selector matches everything.
type Selector []selectorTerm

type selectorTerm struct{ field, value string }

// selectorFields names the filterable coordinates.
var selectorFields = []string{"model", "protocol", "arrival", "kappa", "rate", "jammer", "adversary"}

// ParseSelector decodes a comma-separated "field=value,..." filter,
// e.g. "protocol=dba,kappa=8".  Fields are the scenario coordinates;
// values must match exactly (rates compare numerically, so 0.30
// matches 0.3).
func ParseSelector(expr string) (Selector, error) {
	var sel Selector
	for _, part := range strings.Split(expr, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("query: bad selector term %q (want field=value)", part)
		}
		field, value := part[:eq], part[eq+1:]
		known := false
		for _, f := range selectorFields {
			known = known || f == field
		}
		if !known {
			return nil, fmt.Errorf("query: unknown selector field %q (want one of %s)", field, strings.Join(selectorFields, ", "))
		}
		if field == "kappa" {
			if _, err := strconv.Atoi(value); err != nil {
				return nil, fmt.Errorf("query: bad kappa %q in selector", value)
			}
		}
		if field == "rate" {
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				return nil, fmt.Errorf("query: bad rate %q in selector", value)
			}
		}
		sel = append(sel, selectorTerm{field, value})
	}
	return sel, nil
}

// Match reports whether a cell satisfies every selector term.
func (sel Selector) Match(c *Cell) bool {
	for _, term := range sel {
		var got string
		switch term.field {
		case "model":
			got = c.Model
		case "protocol":
			got = c.Protocol
		case "arrival":
			got = c.Arrival
		case "kappa":
			got = strconv.Itoa(c.Kappa)
		case "rate":
			want, _ := strconv.ParseFloat(term.value, 64)
			if c.Rate != want {
				return false
			}
			continue
		case "jammer":
			got = c.Jammer
		case "adversary":
			got = c.Adversary
		}
		if got != term.value {
			return false
		}
	}
	return true
}

// Filter returns the subset of the Set the selector matches, preserving
// order (and therefore determinism).
func (s *Set) Filter(sel Selector) *Set {
	if len(sel) == 0 {
		return s
	}
	out := &Set{Label: s.Label, Kind: s.Kind, Skipped: s.Skipped}
	for i := range s.Cells {
		if sel.Match(&s.Cells[i]) {
			out.Cells = append(out.Cells, s.Cells[i])
		}
	}
	return out
}

// fmtFloat renders a float with shortest-exact formatting ('g', -1),
// the same byte-stable rendering two loads of the same artifact agree
// on.  NaN (a metric the source does not carry) renders as a dash.
func fmtFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
