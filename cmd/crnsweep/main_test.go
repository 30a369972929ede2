package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyArgs is a grid small enough for in-process end-to-end runs.
func tinyArgs(extra ...string) []string {
	args := []string{
		"-protocols", "genie", "-arrivals", "batch", "-kappas", "4",
		"-rates", "0.5", "-trials", "1", "-horizon", "200", "-quiet",
	}
	return append(args, extra...)
}

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestInvalidShardSpecsRejected(t *testing.T) {
	for _, bad := range []string{"0/4", "5/4", "garbage", "1/0", "-1/2", "1/"} {
		_, _, err := runCLI(t, tinyArgs("-worker", "-cache-dir", t.TempDir(), "-shard", bad)...)
		if err == nil || !strings.Contains(err.Error(), "shard") {
			t.Errorf("-shard %q: err = %v, want a shard parse error", bad, err)
		}
	}
}

func TestResumeRequiresCacheDir(t *testing.T) {
	_, _, err := runCLI(t, tinyArgs("-resume")...)
	if err == nil || !strings.Contains(err.Error(), "-cache-dir") {
		t.Fatalf("err = %v, want the -resume/-cache-dir error", err)
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	_, stderr, err := runCLI(t, "-h")
	if err != nil {
		t.Fatalf("-h returned %v, want nil (exit 0)", err)
	}
	if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-shard") {
		t.Fatalf("usage not printed:\n%s", stderr)
	}
}

func TestBadFlagReportedOnce(t *testing.T) {
	_, stderr, err := runCLI(t, "-no-such-flag")
	if err == nil {
		t.Fatal("undefined flag accepted")
	}
	// The FlagSet already printed the problem; main suppresses the
	// sentinel, so the message appears exactly once.
	if n := strings.Count(stderr, "flag provided but not defined"); n != 1 {
		t.Fatalf("flag error printed %d times:\n%s", n, stderr)
	}
}

// Every mode rejects positional arguments; the retired -merge mode was
// the only one that took any.
func TestPositionalArgsOutsideMergeRejected(t *testing.T) {
	_, _, err := runCLI(t, tinyArgs("shard1.json")...)
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v, want the unexpected-arguments error", err)
	}
}

// copyRecords gathers a store directory's cell records into another
// directory, as an operator copies shard workers' records together.
func copyRecords(t *testing.T, from, to string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(from, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no records in %s (%v)", from, err)
	}
	for _, path := range paths {
		if err := os.WriteFile(filepath.Join(to, filepath.Base(path)), mustRead(t, path), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCLIShardMergeMatchesUnsharded(t *testing.T) {
	// End-to-end through the CLI glue: two -worker -shard k/2 runs into
	// directories of their own, their records copied into one directory,
	// then -assemble, byte-equal to a plain run.
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if _, _, err := runCLI(t, tinyArgs("-kappas", "4,8", "-json", full)...); err != nil {
		t.Fatal(err)
	}
	gathered := filepath.Join(dir, "all-cells")
	if err := os.MkdirAll(gathered, 0o755); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 2; k++ {
		cells := filepath.Join(dir, fmt.Sprintf("cells%d", k))
		args := tinyArgs("-kappas", "4,8", "-worker", "-shard", fmt.Sprintf("%d/2", k), "-cache-dir", cells)
		if _, _, err := runCLI(t, args...); err != nil {
			t.Fatal(err)
		}
		copyRecords(t, cells, gathered)
	}
	assembled := filepath.Join(dir, "assembled.json")
	if _, _, err := runCLI(t, tinyArgs("-kappas", "4,8", "-assemble", "-cache-dir", gathered, "-json", assembled)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, full), mustRead(t, assembled)) {
		t.Fatal("CLI shard workers' assembled JSON differs from unsharded run")
	}
}

func TestCLIResumeUsesCache(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	first := filepath.Join(dir, "first.json")
	if _, _, err := runCLI(t, tinyArgs("-cache-dir", cacheDir, "-json", first)...); err != nil {
		t.Fatal(err)
	}
	// Resumed, fully warm: no cell executes, artifact identical, and the
	// progress log marks cells as cached.
	second := filepath.Join(dir, "second.json")
	args := []string{
		"-protocols", "genie", "-arrivals", "batch", "-kappas", "4",
		"-rates", "0.5", "-trials", "1", "-horizon", "200",
		"-cache-dir", cacheDir, "-resume", "-json", second,
	}
	var out, errBuf bytes.Buffer
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "(cached)") {
		t.Fatalf("progress log missing cache marks:\n%s", errBuf.String())
	}
	if !bytes.Equal(mustRead(t, first), mustRead(t, second)) {
		t.Fatal("resumed CLI artifact differs")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDistributedFlagValidation covers the coordinator/worker/backend
// flag surface: every row is a misuse that must be refused with a
// message pointing at the right flag.
func TestDistributedFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"worker and assemble", tinyArgs("-worker", "-assemble", "-cache-dir", "d"), "-worker and -assemble"},
		{"worker without store", tinyArgs("-worker"), "shared store"},
		{"assemble without store", tinyArgs("-assemble"), "shared store"},
		{"backend with cache-dir", tinyArgs("-worker", "-backend", "http://localhost:1", "-cache-dir", "d"), "pick one"},
		{"backend without role", tinyArgs("-backend", "http://localhost:1"), "-worker or -assemble"},
		{"bad backend url", tinyArgs("-worker", "-backend", "not a url"), "url"},
		{"relative backend url", tinyArgs("-worker", "-backend", "localhost:8771"), "url"},
		{"resume with backend", tinyArgs("-resume", "-worker", "-backend", "http://localhost:1"), "-worker"},
		{"resume with worker", tinyArgs("-resume", "-worker", "-cache-dir", "d"), "-worker"},
		{"shard without worker", tinyArgs("-shard", "1/2", "-json", "x.json"), "-worker -shard k/N -cache-dir"},
		{"worker with json", tinyArgs("-worker", "-cache-dir", "d", "-json", "x.json"), "-assemble"},
		{"worker with csv", tinyArgs("-worker", "-cache-dir", "d", "-csv", "x.csv"), "-assemble"},
		{"worker with bench", tinyArgs("-worker", "-cache-dir", "d", "-bench", "x.json"), "-assemble"},
		{"owner without worker", tinyArgs("-owner", "w1"), "-worker"},
		{"lease-ttl without worker", tinyArgs("-lease-ttl", "5m"), "-worker"},
		{"assemble positional", tinyArgs("-assemble", "-cache-dir", "d", "stray.json"), "unexpected arguments"},
	}
	for _, c := range cases {
		_, _, err := runCLI(t, c.args...)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestCLIWorkerAssembleMatchesUnsharded is the CLI-level end of the
// work-stealing contract: two -worker invocations drain a shared
// -cache-dir store, -assemble reads it back, and the artifact is
// byte-identical to a plain run's.
func TestCLIWorkerAssembleMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	if _, _, err := runCLI(t, tinyArgs("-kappas", "4,8", "-json", full)...); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cells")
	var stderrs [2]string
	for w := 0; w < 2; w++ {
		args := tinyArgs("-kappas", "4,8", "-worker", "-cache-dir", cacheDir,
			"-owner", fmt.Sprintf("w%d", w), "-lease-ttl", "1m")
		// -quiet is in tinyArgs; drop it for the first worker to check the
		// progress line.
		if w == 0 {
			filtered := args[:0]
			for _, a := range args {
				if a != "-quiet" {
					filtered = append(filtered, a)
				}
			}
			args = filtered
		}
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		stderrs[w] = errBuf.String()
	}
	if !strings.Contains(stderrs[0], "worker") {
		t.Fatalf("worker progress line missing:\n%s", stderrs[0])
	}
	assembled := filepath.Join(dir, "assembled.json")
	if _, _, err := runCLI(t, tinyArgs("-kappas", "4,8", "-assemble", "-cache-dir", cacheDir, "-json", assembled)...); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, full), mustRead(t, assembled)) {
		t.Fatal("assembled CLI artifact differs from the plain run")
	}
}

// TestCLIAssembleIncompleteStoreFails: assembling before the workers
// finish is an error that says the store is short, not a bad artifact.
func TestCLIAssembleIncompleteStoreFails(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cells")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, err := runCLI(t, tinyArgs("-assemble", "-cache-dir", cacheDir, "-json", "-")...)
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("err = %v, want the missing-cells error", err)
	}
}
