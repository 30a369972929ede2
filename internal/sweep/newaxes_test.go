package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestExpandCaptureAndNoCDSkipRules covers the skip rules the new axes
// introduced: dba never expands under capture, the no-CD protocols
// expand only under classical:none, and capture drops κ = 1 (where it
// collapses to the classical collision channel already swept).
func TestExpandCaptureAndNoCDSkipRules(t *testing.T) {
	s := Spec{
		Models:    []string{"coded", "classical:none", "capture"},
		Protocols: []string{"beb", "robust", "unbounded"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{1, 8},
		Rates:     []float64{0.3},
		Trials:    1,
		Horizon:   100,
		Seed:      1,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	counts := map[string]int{}
	for _, c := range cells {
		counts[c.Model+"/"+c.Protocol]++
		switch {
		case (c.Protocol == "robust" || c.Protocol == "unbounded") && c.Model != "classical:none":
			t.Fatalf("no-CD protocol expanded under %s: %s", c.Model, c.Key())
		case c.Model == "capture" && c.Kappa < 2:
			t.Fatalf("capture expanded at κ=%d: %s", c.Kappa, c.Key())
		case c.Model == "classical:none" && c.Kappa != 1:
			t.Fatalf("classical cell with κ=%d: %s", c.Kappa, c.Key())
		}
	}
	want := map[string]int{
		"coded/beb":          2, // κ is the coded channel's real axis
		"classical:none/beb": 1, "classical:none/robust": 1, "classical:none/unbounded": 1,
		"capture/beb": 1, // κ=1 dropped (collapses to classical), κ=8 kept
	}
	for k, n := range want {
		if counts[k] != n {
			t.Fatalf("cell counts %v, want %v", counts, want)
		}
	}
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}

	// dba is coded-only: it must not expand under capture even though
	// capture honors its κ floor.
	s = Spec{
		Models:    []string{"coded", "capture"},
		Protocols: []string{"dba", "beb"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{8},
		Rates:     []float64{0.3},
		Trials:    1,
		Horizon:   100,
		Seed:      1,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Expand() {
		if c.Protocol == "dba" && c.Model != "coded" {
			t.Fatalf("dba expanded under %s: %s", c.Model, c.Key())
		}
	}
}

// TestValidateNoCDRequiresClassicalNone: a spec whose protocols are all
// no-CD but whose models omit classical:none would expand to zero cells
// for those protocols; Validate must name the problem.
func TestValidateNoCDRequiresClassicalNone(t *testing.T) {
	s := Spec{
		Models:    []string{"coded"},
		Protocols: []string{"robust", "unbounded"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{8},
		Rates:     []float64{0.3},
		Trials:    1,
		Horizon:   100,
		Seed:      1,
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "classical:none") {
		t.Fatalf("all-no-CD spec without classical:none accepted: %v", err)
	}
	// Adding the model fixes it.
	s.Models = []string{"coded", "classical:none"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsEmptyExpansion: skip rules that eliminate every
// cell must fail validation rather than produce an empty artifact.
func TestValidateRejectsEmptyExpansion(t *testing.T) {
	s := Spec{
		Models:    []string{"capture"},
		Protocols: []string{"beb"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{1}, // capture drops κ=1 → nothing left
		Rates:     []float64{0.3},
		Trials:    1,
		Horizon:   100,
		Seed:      1,
	}
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Fatalf("zero-cell spec accepted: %v", err)
	}
}

// TestRunNewAxesGridDeterministic runs a grid over the new axes —
// capture cells and both no-CD protocols — end to end and holds it to
// the same bar as every other grid: byte-identical JSON across
// parallelism and across reruns, with conservation in every cell.
func TestRunNewAxesGridDeterministic(t *testing.T) {
	s := Spec{
		Name:      "newaxes",
		Models:    []string{"coded", "classical:none", "capture"},
		Protocols: []string{"dba", "beb", "robust", "unbounded"},
		Arrivals:  []string{"batch", "bernoulli"},
		Kappas:    []int{8},
		Rates:     []float64{0.2},
		BatchN:    60,
		Trials:    2,
		Horizon:   400,
		Seed:      23,
	}
	render := func(par int) []byte {
		grid, err := Run(context.Background(), s, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range grid.Cells {
			if c.Arrivals == 0 {
				t.Fatalf("%s: no arrivals", c.Key())
			}
			if c.Arrivals != c.Delivered+c.Pending {
				t.Fatalf("%s: conservation violated", c.Key())
			}
		}
		data, err := grid.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(serial, render(par)) {
			t.Fatalf("parallelism %d changed the new-axes artifact", par)
		}
	}
	if !bytes.Equal(serial, render(1)) {
		t.Fatal("rerun with the same seed diverged")
	}
	// 4 shard workers over the same grid must assemble byte-identically
	// — the new skip rules partition cells, and partitioning must not
	// perturb seeds or order.
	shardedJSON, _ := shardWorkerArtifacts(t, s, 4, 2)
	if !bytes.Equal(serial, shardedJSON) {
		t.Fatal("4 shard workers assemble differently from the unsharded new-axes artifact")
	}
	grid, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(grid.Cells))
	for _, c := range grid.Cells {
		keys[c.Key()] = true
	}
	for _, want := range []string{
		"classical:none/robust/batch/k=1/rate=0.2/jam=none/adv=none",
		"classical:none/unbounded/bernoulli/k=1/rate=0.2/jam=none/adv=none",
		"capture/beb/batch/k=8/rate=0.2/jam=none/adv=none",
	} {
		if !keys[want] {
			t.Fatalf("expected cell %q missing; have %v", want, keys)
		}
	}
}
