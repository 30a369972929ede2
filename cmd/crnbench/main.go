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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/perf"
	"repro/internal/report"
)

func main() {
	scaleName := flag.String("scale", "quick", "grid scale: quick (CI-sized) or full (reaches n=10^6 batches)")
	trials := flag.Int("trials", 3, "trials per cell (timing aggregates over all)")
	seed := flag.Uint64("seed", 1, "base random seed")
	outPath := flag.String("out", "", "write the artifact JSON to this path ('-' = stdout)")
	gate := flag.Bool("gate", false, "after writing, re-parse the artifact and fail on a missing grid cell or an allocs/slot regression in a steady classical gate cell")
	baseline := flag.String("baseline", "", "with -gate: committed artifact whose slots/sec set per-cell floors (host-speed normalized, 2x slack)")
	quiet := flag.Bool("quiet", false, "suppress the table and progress output")
	compare := flag.Bool("compare", false, "compare two artifacts: crnbench -compare OLD.json NEW.json emits a markdown delta table and runs no benchmarks")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two artifact paths: OLD.json NEW.json"))
		}
		old, err := loadArtifact(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		fresh, err := loadArtifact(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		fmt.Print(perf.Compare(old, fresh))
		return
	}

	var scale perf.Scale
	switch *scaleName {
	case "quick":
		scale = perf.Quick
	case "full":
		scale = perf.Full
	default:
		fatal(fmt.Errorf("unknown scale %q (want quick or full)", *scaleName))
	}
	if *trials < 1 {
		fatal(fmt.Errorf("trials %d < 1", *trials))
	}

	opts := perf.Options{Scale: scale, Trials: *trials, Seed: *seed}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "crnbench: %d cells × %d trials (%s)\n",
			len(perf.Cases(scale)), *trials, scale)
		opts.OnCell = func(done, total int, m *perf.Measurement) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %.3g slots/sec %.4f allocs/slot\n",
				done, total, m.Key, m.SlotsPerSec, m.AllocsPerSlot)
		}
	}
	start := time.Now()
	art := perf.Run(opts)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "crnbench: completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		if *outPath != "-" {
			fmt.Print(table(art).String())
		}
	}

	if *outPath != "" {
		if *outPath == "-" {
			if err := report.WriteJSON(os.Stdout, art); err != nil {
				fatal(err)
			}
		} else if err := report.SaveJSON(*outPath, art); err != nil {
			fatal(err)
		}
	}
	if *gate {
		if *outPath == "" || *outPath == "-" {
			fatal(fmt.Errorf("-gate needs -out FILE (it re-parses the written artifact)"))
		}
		data, err := os.ReadFile(*outPath)
		if err != nil {
			fatal(err)
		}
		var back perf.Artifact
		if err := json.Unmarshal(data, &back); err != nil {
			fatal(fmt.Errorf("emitted artifact does not parse: %w", err))
		}
		if err := perf.Check(&back, scale); err != nil {
			fatal(err)
		}
		if *baseline != "" {
			committed, err := os.ReadFile(*baseline)
			if err != nil {
				fatal(err)
			}
			var ref perf.Artifact
			if err := json.Unmarshal(committed, &ref); err != nil {
				fatal(fmt.Errorf("baseline %s does not parse: %w", *baseline, err))
			}
			if err := perf.CheckFloors(&back, &ref); err != nil {
				fatal(err)
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "crnbench: gate ok (%d cells, %s ≤ %.2f allocs/slot)\n",
				len(back.Cells), strings.Join(perf.GateKeys(scale), ", "), perf.GateAllocsPerSlot)
			if *baseline != "" {
				fmt.Fprintf(os.Stderr, "crnbench: slots/sec floors ok vs %s (headroom %.0f%%)\n",
					*baseline, 100*(1-perf.FloorHeadroom))
			}
		}
	} else if *baseline != "" {
		fatal(fmt.Errorf("-baseline needs -gate"))
	}
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "crnbench: %v\n", err)
	os.Exit(1)
}
