package sweep

import (
	"os"
	"testing"
)

// TestBenchSpecCellIdentitiesPinned pins the content-addressed identity
// of cells in the committed benchmark spec.  Cell IDs are the cache and
// resume keys of published artifacts: axis extensions (new protocols,
// new channel models) must leave every pre-existing cell's ID — its
// scenario key, engine knobs, and trial seeds — byte-identical, or
// resumed and distributed runs silently recompute (or worse, wrongly
// reuse) cells.
// If this test fails, the schema changed: bump SchemaVersion and
// regenerate the artifacts rather than editing the constants here.
func TestBenchSpecCellIdentitiesPinned(t *testing.T) {
	data, err := os.ReadFile("../../bench_spec.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	if len(cells) != 132 {
		t.Fatalf("bench spec expands to %d cells, want 132", len(cells))
	}
	seeds := spec.jobSeeds(len(cells))
	golden := []struct {
		idx int
		key string
		id  string
	}{
		{0, "coded/dba/batch/k=8/rate=0.3/jam=none/adv=none",
			"37db65458a4e96277d9f61f775683fa0c112ccc26c2c974388a92ce4d481f6e2"},
		{1, "coded/dba/batch/k=8/rate=0.3/jam=none/adv=reactive:4/48",
			"5a07f822c2c06687d83c5c660dde0730b6eb3f27d6ac3cc16ffd0e4958b49088"},
		{7, "coded/dba/batch/k=64/rate=0.3/jam=none/adv=reactive:4/48",
			"bafc0f331666a56391fa5c1ded9595db816f833d3117b9ff9ec945997f9dc0c8"},
		{66, "coded/genie/bernoulli/k=64/rate=0.3/jam=none/adv=none",
			"a7bbca76ca2b7312ea21b13d0c49154b94585a0b124ebbf610183a4659b29278"},
		{131, "classical:ternary/mw/bernoulli/k=1/rate=0.7/jam=none/adv=sigmarho:1000/0.1",
			"f52ede1d6a4adc4001fc22e9790081acf833b3a6b6ca9b2898568059f9e64970"},
	}
	for _, g := range golden {
		if key := cells[g.idx].Key(); key != g.key {
			t.Errorf("cell %d key %s, want %s", g.idx, key, g.key)
			continue
		}
		id := cellID(cells[g.idx], spec, seeds[g.idx*spec.Trials:(g.idx+1)*spec.Trials])
		if id != g.id {
			t.Errorf("cell %d (%s) id %s, want %s", g.idx, g.key, id, g.id)
		}
	}
}
