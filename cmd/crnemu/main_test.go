package main

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err = run(args, &out, &errBuf)
	return out.String(), errBuf.String(), err
}

// scenarios are small batch runs: DBA on the coded channel, and beb,
// whose wake splits the slot barrier in two while a backlog drains.
var scenarios = map[string][]string{
	"dba": {"-protocol", "dba", "-kappa", "8", "-arrival", "batch", "-n", "300", "-stations", "3", "-seed", "7"},
	"beb": {"-protocol", "beb", "-model", "classical:ternary", "-arrival", "batch", "-n", "40", "-stations", "2", "-seed", "7"},
}

// artifactOf runs one scenario with -json and returns its artifact.
func artifactOf(t *testing.T, scenario []string, extra ...string) string {
	t.Helper()
	args := append(append([]string{"-json"}, scenario...), extra...)
	out, stderr, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("crnemu %v: %v\n%s", args, err, stderr)
	}
	if !strings.HasPrefix(out, `{"result":`) {
		t.Fatalf("crnemu %v: not a JSON artifact:\n%s", args, out)
	}
	return out
}

// TestTransportsMatchSim is the emulation gate at the CLI surface: the
// in-proc and loopback-UDP artifacts are byte-equal to -transport sim.
func TestTransportsMatchSim(t *testing.T) {
	for name, sc := range scenarios {
		t.Run(name, func(t *testing.T) {
			ref := artifactOf(t, sc, "-transport", "sim")
			for _, tr := range []string{"inproc", "udp"} {
				if got := artifactOf(t, sc, "-transport", tr); got != ref {
					t.Errorf("-transport %s artifact differs from sim:\n got %s\nwant %s", tr, got, ref)
				}
			}
		})
	}
}

// syncBuffer is a stderr shared by a coordinator goroutine and the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`coordinating on (\S+),`)

// TestListenJoinMatchesSim runs the multi-process mode in one process:
// a -listen coordinator and one -join per station, over loopback UDP.
func TestListenJoinMatchesSim(t *testing.T) {
	sc := scenarios["beb"]
	ref := artifactOf(t, sc, "-transport", "sim")

	var out bytes.Buffer
	coordErr := new(syncBuffer)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-json", "-listen", "127.0.0.1:0"}, sc...), &out, coordErr)
	}()
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := listenLine.FindStringSubmatch(coordErr.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("coordinator never announced its address:\n%s", coordErr)
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	joined := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var jOut, jErr bytes.Buffer
			joined <- run([]string{"-join", addr}, &jOut, &jErr)
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-joined; err != nil {
			t.Errorf("station: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coordErr)
	}
	if out.String() != ref {
		t.Errorf("-listen/-join artifact differs from sim:\n got %s\nwant %s", out.String(), ref)
	}
}

func TestUnknownTransportRejected(t *testing.T) {
	_, _, err := runCLI(t, "-transport", "tcp")
	if err == nil || !strings.Contains(err.Error(), `unknown transport "tcp"`) {
		t.Fatalf("err = %v, want the unknown-transport error", err)
	}
}

// A -listen coordinator with -transport sim used to print the simulator
// artifact and exit without listening.
func TestModeConflictsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-listen", "127.0.0.1:0", "-transport", "sim"},
		{"-join", "127.0.0.1:1", "-transport", "udp"},
		{"-listen", "127.0.0.1:0", "-join", "127.0.0.1:1"},
	} {
		if _, _, err := runCLI(t, args...); err == nil {
			t.Errorf("crnemu %v accepted", args)
		}
	}
}

// dba's analysis needs κ ≥ 6: below it, set by -kappa or embedded in
// the model descriptor, every transport refuses the run with an error
// instead of a replica's constructor panicking — and at once, because
// the coordinator tells its stations rather than leaving them to time
// out.
func TestDBASmallKappaRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "dba", "-kappa", "2", "-transport", "sim"},
		{"-protocol", "dba", "-kappa", "2", "-transport", "inproc"},
		{"-protocol", "dba", "-kappa", "2", "-transport", "udp"},
		{"-protocol", "dba", "-model", "coded:4", "-transport", "sim"},
		{"-protocol", "dba", "-model", "coded:4", "-transport", "inproc"},
	} {
		start := time.Now()
		_, _, err := runCLI(t, args...)
		if err == nil || !strings.Contains(err.Error(), "needs κ ≥ 6") {
			t.Errorf("crnemu %v: err = %v, want the minimum-κ error", args, err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("crnemu %v took %v to refuse the run", args, d)
		}
	}
}

func TestPositionalArgsRejected(t *testing.T) {
	_, _, err := runCLI(t, "-transport", "sim", "stray")
	if err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("err = %v, want the unexpected-arguments error", err)
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	_, stderr, err := runCLI(t, "-h")
	if err != nil {
		t.Fatalf("-h returned %v, want nil (exit 0)", err)
	}
	if !strings.Contains(stderr, "-transport") {
		t.Fatalf("usage not printed:\n%s", stderr)
	}
}

// TestScenarioRefusals: what the scenario builder refuses, every
// transport refuses with an error and at once; what it maps to a
// default or a floor, the simulator reference runs.
func TestScenarioRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "beb", "-kappa", "0"},
		{"-arrival", "burst", "-window", "-5"},
		{"-protocol", "aloha", "-model", "classical", "-aloha-p", "2"},
		{"-protocol", "beb", "-model", "classical:none", "-adversary", "reactive:4/8"},
		{"-n", "-3"},
		{"-n", "10", "-horizon", "0"},
		{"-arrival", "bernoulli", "-rate", "-0.1"},
		{"-latency-samples", "-5"},
	} {
		for _, tr := range []string{"sim", "inproc", "udp"} {
			start := time.Now()
			_, _, err := runCLI(t, append(args, "-transport", tr)...)
			if err == nil || strings.Contains(err.Error(), "\n") {
				t.Errorf("crnemu %v -transport %s: err = %v, want a one-line refusal", args, tr, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("crnemu %v -transport %s took %v to refuse the run", args, tr, d)
			}
		}
	}
	for _, tc := range []struct {
		args    []string
		arrival string
	}{
		{[]string{"-protocol", "genie", "-arrival", "burst", "-window", "0", "-rate", "0.001", "-horizon", "200"}, `"Arrival":"burst(16/16384)"`},
		{[]string{"-protocol", "genie", "-n", "0", "-rate", "0.5", "-horizon", "200"}, `"Arrival":"batch(100@0)"`},
	} {
		if got := artifactOf(t, tc.args, "-transport", "sim"); !strings.Contains(got, tc.arrival) {
			t.Errorf("crnemu %v: artifact lacks %s:\n%s", tc.args, tc.arrival, got)
		}
	}
	aloha := []string{"-protocol", "aloha", "-model", "classical", "-n", "20", "-transport", "sim"}
	if artifactOf(t, aloha, "-aloha-p", "0") != artifactOf(t, aloha, "-aloha-p", "0.001") {
		t.Error("-aloha-p 0 does not run at the 0.001 default")
	}
}
