package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/report"
	"repro/internal/sweep"
)

func runCLI(t *testing.T, argv ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(argv, &stdout, &stderr)
	return stdout.String(), err
}

// writeArtifacts executes a tiny sweep once and materializes it in the
// three file-backed source shapes a query can read.
func writeArtifacts(t *testing.T) (gridPath, benchPath, storeDir string) {
	t.Helper()
	dir := t.TempDir()
	storeDir = filepath.Join(dir, "cells")
	store, err := cache.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{
		Protocols: []string{"dba"},
		Arrivals:  []string{"batch"},
		Kappas:    []int{8},
		Rates:     []float64{0.3, 0.6},
		Trials:    1,
		Horizon:   300,
		Seed:      7,
	}
	g, err := sweep.Run(context.Background(), spec, sweep.Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	gridPath = filepath.Join(dir, "grid.json")
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gridPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	benchPath = filepath.Join(dir, "bench.json")
	bench := g.Bench()
	if err := report.SaveJSON(benchPath, &bench); err != nil {
		t.Fatal(err)
	}
	return gridPath, benchPath, storeDir
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"no subcommand", nil},
		{"unknown subcommand", []string{"frobnicate"}},
		{"list without src", []string{"list"}},
		{"list positional", []string{"list", "-src", "x.json", "stray"}},
		{"list bad selector", []string{"list", "-src", "x.json", "-where", "bogus=1"}},
		{"diff missing b", []string{"diff", "-a", "x.json"}},
		{"diff missing a", []string{"diff", "-b", "x.json"}},
		{"list missing source file", []string{"list", "-src", "/nonexistent/x.json"}},
		{"list bad url", []string{"list", "-src", "http://"}},
	}
	for _, c := range cases {
		if _, err := runCLI(t, c.argv...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := runCLI(t, "help"); err != nil {
		t.Errorf("help: %v", err)
	}
	if _, err := runCLI(t, "list", "-h"); err != nil {
		t.Errorf("list -h: %v", err)
	}
}

func TestListAcrossSourceKinds(t *testing.T) {
	gridPath, benchPath, storeDir := writeArtifacts(t)
	for _, src := range []string{gridPath, benchPath, storeDir} {
		out, err := runCLI(t, "list", "-src", src)
		if err != nil {
			t.Fatalf("list %s: %v", src, err)
		}
		if strings.Count(out, "| coded/dba/") != 2 {
			t.Fatalf("list %s rows:\n%s", src, out)
		}
	}
	// -where filters; -csv switches format.
	out, err := runCLI(t, "list", "-src", gridPath, "-where", "rate=0.3", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "cell,") {
		t.Fatalf("filtered CSV:\n%s", out)
	}
}

func TestDiffSelfIsCleanAndGates(t *testing.T) {
	gridPath, benchPath, storeDir := writeArtifacts(t)
	// Every pair of views of the same run diffs clean, even across
	// source kinds (grid vs bench vs store).
	for _, pair := range [][2]string{{gridPath, benchPath}, {gridPath, storeDir}, {benchPath, storeDir}} {
		out, err := runCLI(t, "diff", "-a", pair[0], "-b", pair[1], "-gate")
		if err != nil {
			t.Fatalf("diff %v: %v", pair, err)
		}
		if !strings.Contains(out, "(0 changed)") {
			t.Fatalf("diff %v:\n%s", pair, out)
		}
	}
}

func TestDiffDetectsChangeAndIsByteStable(t *testing.T) {
	gridPath, _, _ := writeArtifacts(t)
	// Perturb one metric in a copy of the grid.
	data, err := os.ReadFile(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := filepath.Join(t.TempDir(), "mutated.json")
	patched := strings.Replace(string(data), `"mean": `, `"mean": 9`, 1)
	if patched == string(data) {
		t.Fatal("no mean field to perturb")
	}
	if err := os.WriteFile(mutated, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	out1, err := runCLI(t, "diff", "-a", gridPath, "-b", mutated, "-changed")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := runCLI(t, "diff", "-a", gridPath, "-b", mutated, "-changed")
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Fatal("diff output is not byte-stable")
	}
	if !strings.Contains(out1, "(1 changed)") {
		t.Fatalf("perturbed diff:\n%s", out1)
	}
	// And the gate refuses it.
	if _, err := runCLI(t, "diff", "-a", gridPath, "-b", mutated, "-gate"); err == nil {
		t.Fatal("gate passed a changed diff")
	}
}

func TestDiffOutWritesFile(t *testing.T) {
	gridPath, benchPath, _ := writeArtifacts(t)
	outPath := filepath.Join(t.TempDir(), "sub", "diff.md")
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		t.Fatal(err)
	}
	stdout, err := runCLI(t, "diff", "-a", gridPath, "-b", benchPath, "-out", outPath)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Fatalf("-out still wrote to stdout: %q", stdout)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# Cell diff") {
		t.Fatalf("report file:\n%s", data)
	}
}
