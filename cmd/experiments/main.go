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
package main

import (
	"flag"
	"fmt"
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
	scaleFlag := flag.String("scale", "quick", "experiment sizing: quick or full")
	runFlag := flag.String("run", "all", "comma-separated experiment IDs (e.g. E1,E3) or 'all'")
	seed := flag.Uint64("seed", 2022, "base random seed")
	parallel := flag.Int("parallel", 1, "concurrent experiments (0 = one per core)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files (optional)")
	jsonPath := flag.String("json", "", "path to write the JSON artifact (optional, '-' = stdout)")
	flag.Parse()

	var scale experiments.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	var runners []experiments.Runner
	if strings.EqualFold(*runFlag, "all") {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*runFlag, ",") {
			r := experiments.ByID(strings.TrimSpace(id))
			if r == nil {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
				os.Exit(2)
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

	fmt.Printf("Contention Resolution for Coded Radio Networks — reproduction harness\n")
	fmt.Printf("scale=%s seed=%d experiments=%d parallel=%d\n\n", scale, *seed, len(runners), workers)
	grandStart := time.Now()

	// Experiments run concurrently on the engine's shared worker pool
	// (sim.ForEach, the same fan-out the trial runner uses); each output
	// streams to stdout in index order as soon as it and its
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
		fmt.Print(outputs[i].String())
		fmt.Printf("[%s completed in %v]\n\n",
			runners[i].ID, elapsed[i].Round(time.Millisecond))
	}

	if *csvDir != "" {
		for _, out := range outputs {
			for i, t := range out.Tables {
				name := fmt.Sprintf("%s-%d", out.ID, i+1)
				if err := t.SaveCSV(*csvDir, name); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if *jsonPath != "" {
		artifact := jsonRun{Scale: scale.String(), Seed: *seed, Experiments: outputs}
		var err error
		if *jsonPath == "-" {
			err = report.WriteJSON(os.Stdout, artifact)
		} else {
			err = report.SaveJSON(*jsonPath, artifact)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("all experiments completed in %v\n", time.Since(grandStart).Round(time.Millisecond))
}
