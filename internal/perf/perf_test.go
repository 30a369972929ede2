package perf

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCasesDeterministicAndUnique(t *testing.T) {
	for _, scale := range []Scale{Quick, Full} {
		a, b := Cases(scale), Cases(scale)
		if len(a) == 0 {
			t.Fatalf("%s: empty grid", scale)
		}
		seen := make(map[string]bool, len(a))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: grid not deterministic at %d", scale, i)
			}
			k := a[i].Key()
			if seen[k] {
				t.Fatalf("%s: duplicate cell key %q", scale, k)
			}
			seen[k] = true
		}
		for _, key := range GateKeys(scale) {
			if !seen[key] {
				t.Fatalf("%s: gate cell %q not in grid", scale, key)
			}
		}
		// Every protocol the committed sweep grid runs is timed here too.
		for _, proto := range []string{"dba", "beb", "genie", "mw"} {
			found := false
			for _, c := range a {
				found = found || c.Protocol == proto
			}
			if !found {
				t.Fatalf("%s: grid has no %s cell", scale, proto)
			}
		}
	}
	// Full scale must reach the large-batch regime the tentpole targets.
	var millionBatch bool
	for _, c := range Cases(Full) {
		millionBatch = millionBatch || (c.Protocol == "dba" && c.Workload == "batch" && c.N == 1_000_000)
	}
	if !millionBatch {
		t.Fatal("full grid lost the dba n=10^6 batch cell")
	}
}

func TestGridSkipsOversizedBaselineBatches(t *testing.T) {
	for _, c := range Cases(Full) {
		if c.Protocol == "beb" && c.Workload == "batch" && c.N > 20_000 {
			t.Fatalf("beb asked to complete an n=%d batch", c.N)
		}
	}
}

// TestRunQuickArtifact runs the whole quick grid once — the same
// coverage the CI bench-smoke step exercises through cmd/crnbench —
// and validates the artifact, including the allocation gate.
func TestRunQuickArtifact(t *testing.T) {
	var calls int
	art := Run(Options{Scale: Quick, Trials: 1, Seed: 2022,
		OnCell: func(done, total int, m *Measurement) {
			calls++
			if m == nil || done < 1 || done > total {
				t.Fatalf("bad progress call %d/%d %v", done, total, m)
			}
		}})
	if calls != len(Cases(Quick)) {
		t.Fatalf("progress calls %d, want %d", calls, len(Cases(Quick)))
	}
	if err := Check(art, Quick); err != nil {
		t.Fatal(err)
	}
	// The artifact must survive a JSON round trip (what the committed
	// BENCH_engine.json and the CI smoke re-parse).
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := Check(&back, Quick); err != nil {
		t.Fatalf("round-tripped artifact invalid: %v", err)
	}
	// Batch cells complete their batches; steady cells drain.
	for _, m := range art.Cells {
		if m.Delivered != m.Arrivals {
			t.Fatalf("%s: delivered %d of %d", m.Key, m.Delivered, m.Arrivals)
		}
	}
}

// TestCheckFloors exercises the throughput ratchet on synthetic
// artifacts: uniform host-speed shifts pass at any magnitude, a single
// cell sagging against the rest trips the gate, and cells missing from
// either side are ignored rather than failed.
func TestCheckFloors(t *testing.T) {
	mk := func(speeds map[string]float64) *Artifact {
		a := &Artifact{Name: "engine", Scale: "quick"}
		for k, s := range speeds {
			// Slots sized so every synthetic cell clears FloorMinSeconds.
			a.Cells = append(a.Cells, Measurement{Key: k, SlotsPerSec: s,
				Slots: int64(s * FloorMinSeconds * 10)})
		}
		return a
	}
	committed := mk(map[string]float64{"a": 1000, "b": 2000, "c": 500})

	// Identical run passes.
	if err := CheckFloors(mk(map[string]float64{"a": 1000, "b": 2000, "c": 500}), committed); err != nil {
		t.Fatal(err)
	}
	// A uniformly 10× slower host passes: the median ratio absorbs it.
	if err := CheckFloors(mk(map[string]float64{"a": 100, "b": 200, "c": 50}), committed); err != nil {
		t.Fatal(err)
	}
	// One cell collapsing while the others hold trips the gate.
	err := CheckFloors(mk(map[string]float64{"a": 1000, "b": 2000, "c": 100}), committed)
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("regressed cell accepted: %v", err)
	}
	// Cells absent from the committed baseline (a grid that grew) are
	// skipped, not failed.
	if err := CheckFloors(mk(map[string]float64{"a": 1000, "b": 2000, "c": 500, "new": 1}), committed); err != nil {
		t.Fatal(err)
	}
	// A committed cell whose implied wall clock sits under
	// FloorMinSeconds is recorded but never ratcheted: it is noise.
	tiny := mk(map[string]float64{"a": 1000, "b": 2000, "c": 500})
	for i := range tiny.Cells {
		if tiny.Cells[i].Key == "c" {
			tiny.Cells[i].Slots = int64(tiny.Cells[i].SlotsPerSec * FloorMinSeconds / 2)
		}
	}
	if err := CheckFloors(mk(map[string]float64{"a": 1000, "b": 2000, "c": 1}), tiny); err != nil {
		t.Fatalf("sub-threshold cell gated: %v", err)
	}
	// No overlap at all is an error, not a silent pass.
	if err := CheckFloors(mk(map[string]float64{"x": 1}), committed); err == nil {
		t.Fatal("disjoint artifacts accepted")
	}
	if err := CheckFloors(nil, committed); err == nil {
		t.Fatal("nil artifact accepted")
	}
}

func TestCheckRejects(t *testing.T) {
	art := Run(Options{Scale: Quick, Trials: 1, Seed: 7})
	if err := Check(art, Quick); err != nil {
		t.Fatal(err)
	}
	missing := *art
	missing.Cells = art.Cells[1:]
	if err := Check(&missing, Quick); err == nil {
		t.Fatal("missing cell accepted")
	}
	dup := *art
	dup.Cells = append([]Measurement{art.Cells[0]}, art.Cells...)
	if err := Check(&dup, Quick); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate cell accepted: %v", err)
	}
	for _, key := range GateKeys(Quick) {
		gated := *art
		gated.Cells = append([]Measurement(nil), art.Cells...)
		for i := range gated.Cells {
			if gated.Cells[i].Key == key {
				gated.Cells[i].AllocsPerSlot = 1.5
			}
		}
		if err := Check(&gated, Quick); err == nil || !strings.Contains(err.Error(), "allocation gate") {
			t.Fatalf("alloc regression in %s accepted: %v", key, err)
		}
	}
	if err := Check(nil, Quick); err == nil {
		t.Fatal("nil artifact accepted")
	}
}
