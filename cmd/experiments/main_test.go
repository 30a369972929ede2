package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the command in-process and returns its output and exit
// status.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

// TestJSONToStdoutIsTheArtifact: with -json - stdout parses as the
// artifact and holds nothing else, while the text report goes to
// stderr.
func TestJSONToStdoutIsTheArtifact(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-run", "E8", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	var art jsonRun
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&art); err != nil {
		t.Fatalf("stdout is not the JSON artifact: %v\n%s", err, stdout)
	}
	if dec.More() {
		t.Fatalf("stdout carries more than the artifact:\n%s", stdout)
	}
	if art.Scale != "quick" || art.Seed != 2022 || len(art.Experiments) != 1 || art.Experiments[0].ID != "E8" {
		t.Fatalf("artifact scale %q seed %d with %d experiments, want quick, 2022 and E8 alone", art.Scale, art.Seed, len(art.Experiments))
	}
	for _, want := range []string{"reproduction harness", "[E8 completed in", "all experiments completed"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestFileArtifactsKeepTheTextOnStdout is the nightly's form: the
// artifact and the CSV tables go to files, the text report to stdout.
func TestFileArtifactsKeepTheTextOnStdout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e8.json")
	stdout, stderr, code := runCLI(t, "-run", "E8", "-json", path, "-csv", dir)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "[E8 completed in") || stderr != "" {
		t.Fatalf("stdout %q, stderr %q; want the text report on stdout alone", stdout, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art jsonRun
	if err := json.Unmarshal(data, &art); err != nil || len(art.Experiments) != 1 {
		t.Fatalf("artifact file: %v\n%s", err, data)
	}
	if csvs, _ := filepath.Glob(filepath.Join(dir, "E8-*.csv")); len(csvs) == 0 {
		t.Error("no E8 table was written as CSV")
	}
}

// TestUsageErrors: a stray argument, an unknown experiment ID or scale,
// and a bad flag each exit 2 with one stderr line, before any
// experiment runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-run", "E8", "stray"}, "unexpected arguments [stray]"},
		{[]string{"-run", "E8,E99"}, `unknown experiment "E99"`},
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
	} {
		stdout, stderr, code := runCLI(t, tc.args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.says) {
			t.Errorf("experiments %v: exit %d, stdout %q, stderr %q; want exit 2 and one line saying %q",
				tc.args, code, stdout, stderr, tc.says)
		}
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	_, stderr, code := runCLI(t, "-h")
	if code != 0 || !strings.Contains(stderr, "-scale") {
		t.Fatalf("-h: exit %d, stderr %q; want exit 0 and the usage", code, stderr)
	}
}
