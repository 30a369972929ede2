package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestRefusals: every scenario the builder refuses, and every bad flag,
// is one line on stderr and exit 2, with nothing run.
func TestRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "beb", "-kappa", "0"},
		{"-arrival", "burst", "-window", "-5"},
		{"-protocol", "aloha", "-model", "classical", "-aloha-p", "2"},
		{"-protocol", "beb", "-model", "classical:none", "-adversary", "reactive:4/8"},
		{"-n", "-3"},
		{"-n", "10", "-horizon", "0"},
		{"-arrival", "bernoulli", "-rate", "-0.1"},
		{"-latency-samples", "-5"},
		{"-protocol", "genie", "-n", "5", "stray"},
		{"-protocol", "dba", "-kappa", "2"},
		{"-protocol", "robust", "-model", "coded"},
		{"-kappa", "x"},
		{"-no-such-flag"},
	} {
		code, stdout, stderr := runCLI(append(args, "-plot=false")...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "crnsim: ") {
			t.Errorf("crnsim %v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, stdout, stderr)
		}
	}
}

// TestEdgeDefaults pins the values that map to a default or a floor
// instead of a refusal.
func TestEdgeDefaults(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		arrival string
	}{
		{[]string{"-protocol", "genie", "-arrival", "burst", "-window", "0", "-rate", "0.001", "-horizon", "200"}, "burst(16/16384)"},
		{[]string{"-protocol", "genie", "-arrival", "burst", "-window", "64", "-rate", "0.001", "-horizon", "200"}, "burst(1/64)"},
		{[]string{"-protocol", "genie", "-n", "0", "-rate", "0.5", "-horizon", "200"}, "batch(100@0)"},
	} {
		code, stdout, stderr := runCLI(append(tc.args, "-plot=false")...)
		if code != 0 || !strings.Contains(stdout, "arrivals:   "+tc.arrival+" ") {
			t.Errorf("crnsim %v: exit %d, want arrivals %s:\n%s%s", tc.args, code, tc.arrival, stdout, stderr)
		}
	}
	// -aloha-p 0 is the 0.001 default.
	aloha := []string{"-protocol", "aloha", "-model", "classical", "-n", "20", "-plot=false"}
	_, zero, _ := runCLI(append(aloha, "-aloha-p", "0")...)
	code, def, stderr := runCLI(append(aloha, "-aloha-p", "0.001")...)
	if code != 0 || zero != def {
		t.Errorf("-aloha-p 0 and 0.001 differ (exit %d, %s):\n%s\n%s", code, stderr, zero, def)
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	code, _, stderr := runCLI("-h")
	if code != 0 || !strings.Contains(stderr, "-protocol") {
		t.Fatalf("-h: exit %d, usage:\n%s", code, stderr)
	}
}

// TestGoldenRuns pins the report of three small runs, as the command
// printed them before it went through the scenario builder: a slip in
// the engine or protocol seed derivation changes every line.
func TestGoldenRuns(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-protocol dba -kappa 8 -arrival batch -n 300 -seed 3", `protocol:   decodable-backoff
arrivals:   batch(300@0) (300 packets)
channel:    coded κ=8  good=300 bad=56 silent=10 jammed=0 events=91
delivered:  300 (pending 0) in 366 slots
throughput: 0.8197 (first arrival to last delivery)
backlog:    max 300
latency:    p50=211 p99=361 max=366 mean=207.3 slots
`},
		{"-model classical -protocol beb -arrival batch -n 100 -seed 5", `protocol:   exponential-backoff
arrivals:   batch(100@0) (100 packets)
channel:    classical:ternary κ=1  good=100 bad=106 silent=522 jammed=0 events=100
delivered:  100 (pending 0) in 728 slots
throughput: 0.1374 (first arrival to last delivery)
backlog:    max 100
latency:    p50=221 p99=621 max=728 mean=254.1 slots
`},
		{"-model capture -kappa 2 -protocol genie -arrival poisson -rate 0.6 -horizon 2000 -seed 7", `protocol:   genie-aloha
arrivals:   poisson(0.600) (1197 packets)
channel:    capture κ=2  good=1044 bad=20 silent=940 jammed=0 events=1044
delivered:  1197 (pending 0) in 2004 slots
throughput: 0.5982 (first arrival to last delivery)
backlog:    max 9
latency:    p50=1 p99=18 max=36 mean=2.7 slots
`},
	} {
		code, stdout, stderr := runCLI(append(strings.Fields(tc.args), "-plot=false")...)
		if code != 0 || stdout != tc.want {
			t.Errorf("crnsim %s: exit %d %s\n got:\n%s\nwant:\n%s", tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// TestDocumentedExamplesParse passes every crnsim example — the package
// doc's and README's `go run ./cmd/crnsim` lines — through the flag
// parsing and the scenario builder's Check, so a documented invocation
// cannot silently stop running.
func TestDocumentedExamplesParse(t *testing.T) {
	var examples []string
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, doc, _ := strings.Cut(string(src), "// Examples:\n")
	doc, _, _ = strings.Cut(doc, "package main")
	for _, line := range strings.Split(doc, "\n") {
		if args, ok := strings.CutPrefix(line, "//\tcrnsim "); ok {
			examples = append(examples, args)
		}
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(readme), "\n") {
		if args, ok := strings.CutPrefix(line, "go run ./cmd/crnsim "); ok {
			examples = append(examples, args)
		}
	}
	if len(examples) < 10 {
		t.Fatalf("found only %d examples: %q", len(examples), examples)
	}
	for _, ex := range examples {
		o, err := parse(strings.Fields(ex), &bytes.Buffer{})
		if err == nil {
			err = o.desc.Check()
		}
		if err != nil {
			t.Errorf("crnsim %s: %v", ex, err)
		}
	}
}
