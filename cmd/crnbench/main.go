// Command crnbench times the simulation engine itself — slots per
// second, heap allocations per slot, bytes per trial — across the
// deterministic protocol × medium × adversary × workload × n grid
// defined by internal/perf, and writes the BENCH_engine.json artifact
// that tracks the engine's performance trajectory across commits.
//
// Usage:
//
//	crnbench [-scale quick|full] [-trials N] [-seed S] [-out BENCH_engine.json] [-gate] [-quiet]
//	crnbench -compare OLD.json NEW.json
//
// Examples:
//
//	crnbench                                  # quick grid, table to stdout
//	crnbench -out BENCH_engine.json           # regenerate the committed artifact
//	crnbench -scale full -trials 3            # the n=10^6 large-batch grid
//	crnbench -out /tmp/b.json -gate -quiet    # CI smoke: write, re-parse, validate, alloc-gate
//	crnbench -out /tmp/b.json -gate -baseline BENCH_engine.json  # + slots/sec floors vs the committed artifact
//	crnbench -compare BENCH_engine.json /tmp/b.json  # markdown per-cell delta table, no benchmarking
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/report"
)

// errFlagParse marks errors the FlagSet has already written to stderr,
// so main exits non-zero without printing them a second time.
var errFlagParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "crnbench: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main minus the process boundary.  Every flag is checked before
// the grid runs.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "quick", "grid scale: quick (CI-sized) or full (reaches n=10^6 batches)")
	trials := fs.Int("trials", 3, "trials per cell (timing aggregates over all)")
	seed := fs.Uint64("seed", 1, "base random seed")
	outPath := fs.String("out", "", "write the artifact JSON to this path ('-' = stdout)")
	gate := fs.Bool("gate", false, "after writing, re-parse the artifact and fail on a missing grid cell or an allocs/slot regression in a steady classical gate cell")
	baseline := fs.String("baseline", "", "with -gate: committed artifact whose slots/sec set per-cell floors (host-speed normalized, 2x slack)")
	quiet := fs.Bool("quiet", false, "suppress the table and progress output")
	compare := fs.Bool("compare", false, "compare two artifacts: crnbench -compare OLD.json NEW.json emits a markdown delta table and runs no benchmarks")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful exit, not an error
		}
		return errFlagParse // the FlagSet already printed the problem
	}

	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two artifact paths: OLD.json NEW.json")
		}
		old, err := loadArtifact(fs.Arg(0))
		if err != nil {
			return err
		}
		fresh, err := loadArtifact(fs.Arg(1))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, perf.Compare(old, fresh))
		return nil
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	scale := perf.Scale(*scaleName)
	if scale != perf.Quick && scale != perf.Full {
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	if *trials < 1 {
		return fmt.Errorf("trials %d < 1", *trials)
	}
	if *gate && (*outPath == "" || *outPath == "-") {
		return fmt.Errorf("-gate needs -out FILE (it re-parses the written artifact)")
	}
	if *baseline != "" && !*gate {
		return fmt.Errorf("-baseline needs -gate")
	}

	opts := perf.Options{Scale: scale, Trials: *trials, Seed: *seed}
	if !*quiet {
		fmt.Fprintf(stderr, "crnbench: %d cells × %d trials (%s)\n",
			len(perf.Cases(scale)), *trials, scale)
		opts.OnCell = func(done, total int, m *perf.Measurement) {
			fmt.Fprintf(stderr, "  [%d/%d] %s %.3g slots/sec %.4f allocs/slot\n",
				done, total, m.Key, m.SlotsPerSec, m.AllocsPerSlot)
		}
	}
	start := time.Now()
	art := perf.Run(opts)
	if !*quiet {
		fmt.Fprintf(stderr, "crnbench: completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		if *outPath != "-" {
			fmt.Fprint(stdout, table(art).String())
		}
	}

	if *outPath == "-" {
		if err := report.WriteJSON(stdout, art); err != nil {
			return err
		}
	} else if *outPath != "" {
		if err := report.SaveJSON(*outPath, art); err != nil {
			return err
		}
	}
	if !*gate {
		return nil
	}
	back, err := loadArtifact(*outPath)
	if err != nil {
		return fmt.Errorf("emitted artifact: %w", err)
	}
	if err := perf.Check(back, scale); err != nil {
		return err
	}
	if *baseline != "" {
		ref, err := loadArtifact(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if err := perf.CheckFloors(back, ref); err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "crnbench: gate ok (%d cells, %s ≤ %.2f allocs/slot)\n",
			len(back.Cells), strings.Join(perf.GateKeys(scale), ", "), perf.GateAllocsPerSlot)
		if *baseline != "" {
			fmt.Fprintf(stderr, "crnbench: slots/sec floors ok vs %s (headroom %.0f%%)\n",
				*baseline, 100*(1-perf.FloorHeadroom))
		}
	}
	return nil
}

func loadArtifact(path string) (*perf.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art perf.Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s does not parse: %w", path, err)
	}
	return &art, nil
}

func table(art *perf.Artifact) *report.Table {
	t := report.NewTable(fmt.Sprintf("engine perf (%s, %d trials)", art.Scale, art.Trials),
		"cell", "slots/sec", "allocs/slot", "bytes/trial", "slots", "delivered", "peakInFlight")
	for i := range art.Cells {
		m := &art.Cells[i]
		t.AddRow(m.Key, m.SlotsPerSec, m.AllocsPerSlot, m.BytesPerTrial,
			m.Slots, m.Delivered, m.PeakInFlight)
	}
	return t
}
