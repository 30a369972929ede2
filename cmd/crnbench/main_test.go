package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(args ...string) (stdout, stderr string, err error) {
	var out, errBuf bytes.Buffer
	err = run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

// TestFlagsCheckedBeforeTheGrid: every refused invocation fails before
// the grid starts, which would announce itself on stderr.
func TestFlagsCheckedBeforeTheGrid(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "1", "-quiet", "extra"}, "unexpected arguments"},
		{[]string{"-trials", "1", "-baseline", "BENCH_engine.json"}, "-baseline needs -gate"},
		{[]string{"-trials", "1", "-gate"}, "-gate needs -out"},
		{[]string{"-trials", "1", "-gate", "-out", "-"}, "-gate needs -out"},
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-trials", "0"}, "trials 0 < 1"},
		{[]string{"-compare", "old.json"}, "-compare needs exactly two"},
	} {
		_, stderr, err := runCLI(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("crnbench %v: err = %v, want %q", tc.args, err, tc.want)
		}
		if strings.Contains(stderr, "cells ×") {
			t.Errorf("crnbench %v ran the grid before refusing it", tc.args)
		}
	}
}

func TestCompareTwoArtifacts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cells string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(`{"name":"engine","scale":"quick","seed":1,"trials":1,"cells":[`+cells+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", `{"key":"a","slots_per_sec":1000,"allocs_per_slot":0.5},{"key":"gone","slots_per_sec":10}`)
	fresh := write("new.json", `{"key":"a","slots_per_sec":1500,"allocs_per_slot":0.25},{"key":"b","slots_per_sec":20}`)
	stdout, _, err := runCLI("-compare", old, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		"| a | 1000 | 1500 | +50.0% | 0.5000 | 0.2500 |",
		"| gone | 10 | — | removed |",
		"| b | — | 20 | new |",
	} {
		if !strings.Contains(stdout, row) {
			t.Errorf("comparison lacks %q:\n%s", row, stdout)
		}
	}
	if _, _, err := runCLI("-compare", old, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("-compare with a missing artifact succeeded")
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	_, stderr, err := runCLI("-h")
	if err != nil || !strings.Contains(stderr, "-baseline") {
		t.Fatalf("-h: err %v, usage:\n%s", err, stderr)
	}
}
