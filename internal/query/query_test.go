package query

import (
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
	"repro/internal/sweep"
)

// smallSpec mirrors the sweep package's test grid: 16 cells, cheap
// enough to execute in-process wherever a test needs real records.
func smallSpec() sweep.Spec {
	return sweep.Spec{
		Protocols: []string{"dba", "genie"},
		Arrivals:  []string{"batch", "bernoulli"},
		Kappas:    []int{8, 16},
		Rates:     []float64{0.3, 0.6},
		Trials:    2,
		Horizon:   500,
		Seed:      42,
	}
}

// specCells is smallSpec's cell count (Spec.Cells needs a pointer).
func specCells() int {
	spec := smallSpec()
	return spec.Cells()
}

func runSmallGrid(t *testing.T) *sweep.Grid {
	t.Helper()
	spec := smallSpec()
	g, err := sweep.Run(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseKeyRoundTrip(t *testing.T) {
	scenarios := []sweep.Scenario{
		{Model: "dba", Protocol: "dba", Arrival: "batch", Kappa: 8, Rate: 0.3, Jammer: "none", Adversary: "none"},
		// Jammer and adversary descriptors that themselves contain
		// slashes — the case a naive positional split gets wrong.
		{Model: "dba", Protocol: "dba", Arrival: "bernoulli", Kappa: 16, Rate: 0.6, Jammer: "periodic:16/4", Adversary: "none"},
		{Model: "genie", Protocol: "genie", Arrival: "batch", Kappa: 32, Rate: 0.9, Jammer: "none", Adversary: "reactive:4/48"},
		{Model: "dba", Protocol: "dba", Arrival: "batch", Kappa: 8, Rate: 0.5, Jammer: "periodic:16/4", Adversary: "reactive:4/48"},
	}
	for _, want := range scenarios {
		got, err := ParseKey(want.Key())
		if err != nil {
			t.Errorf("ParseKey(%q): %v", want.Key(), err)
			continue
		}
		if got != want {
			t.Errorf("ParseKey(%q) = %+v, want %+v", want.Key(), got, want)
		}
	}
}

func TestParseKeyRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"dba/dba/batch",
		"dba/dba/batch/k=8/rate=0.3/jam=none", // no adv
		"dba/dba/batch/k=x/rate=0.3/jam=none/adv=none", // bad kappa
		"dba/dba/batch/k=8/rate=x/jam=none/adv=none",   // bad rate
		"dba/dba/batch/k=8/rate=NaN/jam=none/adv=none", // NaN ≠ NaN: names no cell
		"dba/dba/batch/kappa=8/rate=0.3/jam=none/adv=none",
		"dba/dba/batch/k=8/rate=0.3/jam=/adv=none", // empty jammer
	}
	for _, key := range bad {
		if _, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) accepted", key)
		}
	}
}

// FuzzParseKey: ParseKey never panics, and an accepted key's
// Scenario.Key() parses back to the same Scenario.
func FuzzParseKey(f *testing.F) {
	data, err := os.ReadFile("../../bench_spec.json")
	if err != nil {
		f.Fatal(err)
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		f.Fatal(err)
	}
	for _, sc := range spec.Expand() {
		f.Add(sc.Key())
	}
	f.Add("coded/dba/batch/k=8/rate=0.5/jam=periodic:16/4/adv=reactive:4/48")
	f.Fuzz(func(t *testing.T, key string) {
		sc, err := ParseKey(key)
		if err != nil {
			return
		}
		back, err := ParseKey(sc.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q) = %+v, whose key %q does not parse: %v", key, sc, sc.Key(), err)
		}
		if back != sc {
			t.Fatalf("ParseKey(%q) = %+v, but its key %q parses to %+v", key, sc, sc.Key(), back)
		}
	})
}

// TestBenchKeysParse pins ParseKey against the committed benchmark
// artifact: every key the repo actually produces must decode.
func TestBenchKeysParse(t *testing.T) {
	set, err := Load("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if set.Kind != "bench" || len(set.Cells) == 0 {
		t.Fatalf("loaded kind=%s cells=%d from BENCH_sweep.json", set.Kind, len(set.Cells))
	}
	for i := range set.Cells {
		if !math.IsNaN(set.Cells[i].LatencyP50) {
			t.Fatal("bench source invented a latency_p50")
		}
	}
}

// TestLoadSniffsGridStoreAndHTTP proves the four source shapes converge
// to the same cell view: a grid artifact, the cell store the grid's run
// populated, and that store served over HTTP all diff as identical.
func TestLoadSniffsGridStoreAndHTTP(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(filepath.Join(dir, "cells"))
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	g, err := sweep.Run(context.Background(), spec, sweep.Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	gridPath := filepath.Join(dir, "grid.json")
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gridPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpstore.NewServer(store))
	defer srv.Close()

	fromGrid, err := Load(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Load(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	fromHTTP, err := Load(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fromGrid.Kind != "grid" || fromStore.Kind != "store" || fromHTTP.Kind != "store" {
		t.Fatalf("kinds = %s/%s/%s", fromGrid.Kind, fromStore.Kind, fromHTTP.Kind)
	}
	if n := specCells(); len(fromGrid.Cells) != n || len(fromStore.Cells) != n || len(fromHTTP.Cells) != n {
		t.Fatalf("cell counts = %d/%d/%d, want %d", len(fromGrid.Cells), len(fromStore.Cells), len(fromHTTP.Cells), n)
	}
	for _, other := range []*Set{fromStore, fromHTTP} {
		d := Compare(fromGrid, other)
		if d.Changed() != 0 || len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
			t.Fatalf("grid vs %s view differ: %d changed, onlyA=%v onlyB=%v",
				other.Label, d.Changed(), d.OnlyA, d.OnlyB)
		}
	}
}

func TestLoadStoreSkipsDamage(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Run(context.Background(), smallSpec(), sweep.Options{Cache: store}); err != nil {
		t.Fatal(err)
	}
	ids, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one record, plant one foreign-schema record.
	if err := os.WriteFile(store.Path(ids[0]), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := strings.Repeat("f", 32)
	if err := store.Put(foreign, map[string]string{"schema_version": "other/9"}); err != nil {
		t.Fatal(err)
	}
	set, err := FromBackend(store, "damaged")
	if err != nil {
		t.Fatal(err)
	}
	if want := specCells() - 1; len(set.Cells) != want || set.Skipped != 2 {
		t.Fatalf("cells=%d skipped=%d, want %d and 2", len(set.Cells), set.Skipped, want)
	}
}

func TestLoadRejectsNonArtifacts(t *testing.T) {
	dir := t.TempDir()
	notJSON := filepath.Join(dir, "x.txt")
	if err := os.WriteFile(notJSON, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	cellLess := filepath.Join(dir, "y.json")
	if err := os.WriteFile(cellLess, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{notJSON, cellLess, filepath.Join(dir, "missing.json"), "ftp://nope"} {
		if _, err := Load(path); err == nil {
			t.Errorf("Load(%q) accepted", path)
		}
	}
}

func TestSelectorFilter(t *testing.T) {
	set := FromGrid(runSmallGrid(t), "grid")
	sel, err := ParseSelector("protocol=dba,kappa=8")
	if err != nil {
		t.Fatal(err)
	}
	got := set.Filter(sel)
	if len(got.Cells) != 4 {
		t.Fatalf("filtered to %d cells, want 4", len(got.Cells))
	}
	for i := range got.Cells {
		if c := &got.Cells[i]; c.Protocol != "dba" || c.Kappa != 8 {
			t.Fatalf("filter leaked %s", c.Key())
		}
	}
	// Rates compare numerically: 0.30 matches 0.3.
	sel, err = ParseSelector("rate=0.30")
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Filter(sel); len(got.Cells) != 8 {
		t.Fatalf("rate=0.30 matched %d cells, want 8", len(got.Cells))
	}
}

func TestSelectorRejectsMalformed(t *testing.T) {
	for _, expr := range []string{"bogus=1", "protocol", "=x", "kappa=x", "rate=x"} {
		if _, err := ParseSelector(expr); err == nil {
			t.Errorf("ParseSelector(%q) accepted", expr)
		}
	}
}

// TestDiffDeterministicAndByteStable is the crnquery acceptance
// criterion: the same two sources always render to the same bytes, and
// a real change shows up as a delta row.
func TestDiffDeterministicAndByteStable(t *testing.T) {
	g := runSmallGrid(t)
	a := FromGrid(g, "a")
	// Mutate one cell and drop another to exercise every diff bucket.
	g2, err := sweep.Run(context.Background(), smallSpec(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2.Cells[0].Throughput.Mean *= 1.25
	g2.Cells = g2.Cells[:len(g2.Cells)-1]
	b := FromGrid(g2, "b")

	d1 := Compare(a, b)
	d2 := Compare(a, b)
	if d1.Markdown(false) != d2.Markdown(false) || d1.CSV(false) != d2.CSV(false) {
		t.Fatal("diff renders are not byte-stable")
	}
	if d1.Changed() != 1 {
		t.Fatalf("Changed = %d, want 1", d1.Changed())
	}
	if len(d1.OnlyA) != 1 || len(d1.OnlyB) != 0 {
		t.Fatalf("OnlyA=%v OnlyB=%v, want one A-only key", d1.OnlyA, d1.OnlyB)
	}
	md := d1.Markdown(true)
	if !strings.Contains(md, "unchanged cells hidden") {
		t.Fatal("changed-only markdown does not fold unchanged rows")
	}
	if strings.Count(md, "| coded/") != 1 {
		t.Fatalf("changed-only markdown rows:\n%s", md)
	}
	// The CSV keeps one-sided keys as rows with a side column.
	if csv := d1.CSV(false); !strings.Contains(csv, d1.OnlyA[0]+",a,") {
		t.Fatalf("CSV lost the A-only row:\n%s", csv)
	}
}

func TestIdenticalSetsDiffClean(t *testing.T) {
	g := runSmallGrid(t)
	d := Compare(FromGrid(g, "x"), FromGrid(g, "y"))
	if d.Changed() != 0 || len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Fatal("identical grids diff dirty")
	}
	if got := len(d.Deltas); got != specCells() {
		t.Fatalf("Deltas = %d, want %d", got, specCells())
	}
}

func TestSetRendersByteStable(t *testing.T) {
	set := FromGrid(runSmallGrid(t), "grid")
	if set.Markdown() != set.Markdown() || set.CSV() != set.CSV() {
		t.Fatal("set renders are not byte-stable")
	}
	lines := strings.Split(strings.TrimSpace(set.CSV()), "\n")
	if len(lines) != 1+len(set.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d cells", len(lines), len(set.Cells))
	}
	for i := 2; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("CSV rows out of key order at %d:\n%s\n%s", i, lines[i-1], lines[i])
		}
	}
}

func TestFromBackendRejectsMixedSpecs(t *testing.T) {
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	if _, err := sweep.Run(context.Background(), spec, sweep.Options{Cache: store}); err != nil {
		t.Fatal(err)
	}
	// Same scenarios, different horizon: same keys, different identities.
	spec.Horizon = 600
	if _, err := sweep.Run(context.Background(), spec, sweep.Options{Cache: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := FromBackend(store, "mixed"); err == nil {
		t.Fatal("mixed-spec store accepted")
	}
}
