// Command experiments regenerates the paper-reproduction experiments
// (E1–E16; see DESIGN.md section 5 for the index mapping each experiment
// to a theorem or claim).  It prints tables and ASCII figures, and can
// save every table as CSV and the full run as a JSON artifact.
//
// Usage:
//
//	experiments [-scale quick|full] [-run E3,E8] [-seed N] [-parallel N] [-csv dir] [-json path]
//
// Examples:
//
//	experiments -scale quick                # everything, CI-sized, serial
//	experiments -parallel 0                 # everything, one worker per core
//	experiments -scale full -run E3         # paper-sized Theorem 16 run
//	experiments -csv out/                   # also write out/E1-*.csv ...
//	experiments -json out/experiments.json  # machine-readable artifact
//	experiments -run E8 -json - > e8.json   # the artifact alone on stdout
//
// With -json - stdout carries the JSON artifact and nothing else; the
// banner, tables and timings go to stderr.  A bad flag, a stray
// argument, or an unknown scale or experiment ID exits 2 before any
// experiment runs; a CSV or JSON file that cannot be written exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
)

// jsonRun is the machine-readable artifact: one entry per experiment, in
// index order.  Harness timing is deliberately excluded so artifacts from
// the same scale and seed are reproducible (E12's own wall-clock
// benchmark column is the one nondeterministic cell).
type jsonRun struct {
	Scale       string                `json:"scale"`
	Seed        uint64                `json:"seed"`
	Experiments []*experiments.Output `json:"experiments"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process boundary: it returns the exit status.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	scaleFlag := fs.String("scale", "quick", "experiment sizing: quick or full")
	runFlag := fs.String("run", "all", "comma-separated experiment IDs (e.g. E1,E3) or 'all'")
	seed := fs.Uint64("seed", 2022, "base random seed")
	parallel := fs.Int("parallel", 1, "concurrent experiments (0 = one per core)")
	csvDir := fs.String("csv", "", "directory to write per-table CSV files (optional)")
	jsonPath := fs.String("json", "", "path to write the JSON artifact (optional, '-' = stdout, the text then goes to stderr)")
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", args...)
		return 2
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fmt.Fprintln(stderr, "Usage of experiments:")
			fs.PrintDefaults()
			return 0
		}
		return usage("%v", err)
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %v", fs.Args())
	}

	var scale experiments.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return usage("unknown scale %q (want quick or full)", *scaleFlag)
	}

	var runners []experiments.Runner
	if strings.EqualFold(*runFlag, "all") {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			r := experiments.ByID(strings.TrimSpace(id))
			if r == nil {
				return usage("unknown experiment %q", id)
			}
			runners = append(runners, *r)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runners) {
		workers = len(runners)
	}

	// With the artifact on stdout, the text report goes to stderr.
	text := stdout
	if *jsonPath == "-" {
		text = stderr
	}
	fmt.Fprintf(text, "Contention Resolution for Coded Radio Networks — reproduction harness\n")
	fmt.Fprintf(text, "scale=%s seed=%d experiments=%d parallel=%d\n\n", scale, *seed, len(runners), workers)
	grandStart := time.Now()

	// Experiments run concurrently on the engine's shared worker pool
	// (sim.ForEach, the same fan-out the trial runner uses); each output
	// streams to the text report in index order as soon as it and its
	// predecessors are done, so a serial run keeps the old
	// print-as-you-go behavior.  Experiments are internally deterministic
	// given scale and seed, so concurrency never changes the simulated
	// results (only E12's wall-clock benchmark column varies run to run).
	outputs := make([]*experiments.Output, len(runners))
	elapsed := make([]time.Duration, len(runners))
	done := make([]chan struct{}, len(runners))
	for i := range done {
		done[i] = make(chan struct{})
	}
	go sim.ForEach(len(runners), workers, func(i int) {
		start := time.Now()
		outputs[i] = runners[i].Run(scale, *seed)
		elapsed[i] = time.Since(start)
		close(done[i])
	})

	for i := range runners {
		<-done[i]
		fmt.Fprint(text, outputs[i].String())
		fmt.Fprintf(text, "[%s completed in %v]\n\n",
			runners[i].ID, elapsed[i].Round(time.Millisecond))
	}

	if *csvDir != "" {
		for _, out := range outputs {
			for i, t := range out.Tables {
				name := fmt.Sprintf("%s-%d", out.ID, i+1)
				if err := t.SaveCSV(*csvDir, name); err != nil {
					fmt.Fprintf(stderr, "experiments: %v\n", err)
					return 1
				}
			}
		}
	}
	if *jsonPath != "" {
		artifact := jsonRun{Scale: scale.String(), Seed: *seed, Experiments: outputs}
		var err error
		if *jsonPath == "-" {
			err = report.WriteJSON(stdout, artifact)
		} else {
			err = report.SaveJSON(*jsonPath, artifact)
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(text, "all experiments completed in %v\n", time.Since(grandStart).Round(time.Millisecond))
	return 0
}
