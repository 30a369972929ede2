// Command crnsweep runs a declarative scenario grid — the cross-product
// of channel models × protocols × arrival processes × κ values × rates
// × jammers × adversaries, with several independent trials per cell —
// in parallel, and emits per-cell aggregates as an aligned table, JSON,
// and/or CSV.  Artifacts are deterministic: the same spec and seed
// reproduce byte-identical output at any parallelism — adaptive
// adversaries included — so sweep results are diffable across commits.
//
// The jammers axis names oblivious jammers of the adversary layer:
// random:RATE is the adversaries axis' random:RATE, and
// periodic:PERIOD/BURST its burst:BURST/(PERIOD−BURST).  They run on a
// seed stream of their own, so a jammer can sit beside an injecting
// adversary (never beside a jamming or adaptive one), and they are kept
// for the jam=… segment of the cell keys they write.
//
// Execution is cacheable and resumable (DESIGN.md §6.2): -cache-dir
// persists every completed cell as a content-addressed record, and
// -resume re-executes only the cells whose records are missing.
// Resumed output is byte-identical to a single-process run.
//
// Distributed runs (DESIGN.md §6.3) all fill that record namespace:
// -worker processes claim cells from a store — a -cache-dir directory
// or a crnserve URL via -backend — so any number of workers, started
// and killed at any time, drain one grid together, and -shard k/N
// restricts a worker to a balanced slice of the grid, for machines
// that share no store.  -assemble reads a store back into the full
// grid.  Static slices, work stealing, and a mix of the two produce the
// same bytes.  Machines that share no store split a grid in three
// steps:
//
//  1. run -worker -shard k/N -cache-dir DIR on each machine;
//  2. copy the directories' *.json records into one directory;
//  3. run -assemble -cache-dir on it.
//
// Usage:
//
//	crnsweep [-spec file.json] [grid flags] [-cache-dir dir [-resume]] [-json path] [-csv path] [-bench path]
//	crnsweep [-spec file.json] -worker {-backend URL | -cache-dir dir} [-shard k/N] [-owner name] [-lease-ttl d]
//	crnsweep [-spec file.json] -assemble {-backend URL | -cache-dir dir} [-json path] [-csv path] [-bench path]
//
// Examples:
//
//	crnsweep                                    # default demo grid
//	crnsweep -protocols dba,beb -kappas 8,64 -rates 0.3,0.6 -trials 4
//	crnsweep -models coded,classical -protocols dba,beb,mw  # cross-model comparison
//	crnsweep -models classical:none,capture -protocols unbounded,robust,beb -kappas 8  # no-CD and capture regimes
//	crnsweep -spec sweep.json -json - -quiet    # spec file, JSON to stdout
//	crnsweep -jammers none,random:0.2 -csv out/sweep.csv
//	crnsweep -adversaries none,reactive:8/64,sigmarho:500/0.2  # adversary grid
//	crnsweep -bench BENCH_sweep.json            # diffable benchmark artifact
//	crnsweep -spec sweep.json -cache-dir .sweep-cache -resume  # redo only missing cells
//	crnsweep -spec sweep.json -worker -shard 2/4 -cache-dir cells2  # one of 4 machines
//	crnsweep -spec sweep.json -assemble -cache-dir all-cells -json grid.json  # after copying cells*/*.json together
//	crnsweep -spec sweep.json -worker -backend http://coordinator:8771  # on each machine
//	crnsweep -spec sweep.json -assemble -backend http://coordinator:8771 -json grid.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
	"repro/internal/report"
	"repro/internal/sweep"
)

// errFlagParse marks errors the FlagSet has already written to stderr,
// so main exits non-zero without printing them a second time.
var errFlagParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "crnsweep: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main minus the process boundary, so flag handling and the
// worker/assemble/resume paths are testable in-process.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "JSON sweep spec file (grid flags are ignored if set)")
	name := fs.String("name", "", "sweep name recorded in artifacts")
	models := fs.String("models", "coded", "comma-separated channel models: coded, classical, classical:none, classical:binary, classical:ternary, capture")
	protocols := fs.String("protocols", "dba,genie", "comma-separated protocols: dba, beb, aloha, genie, mw, robust, unbounded")
	arrivals := fs.String("arrivals", "bernoulli", "comma-separated arrivals: batch, bernoulli, poisson, even, burst")
	kappas := fs.String("kappas", "8,64", "comma-separated decoding thresholds")
	rates := fs.String("rates", "0.3,0.6", "comma-separated offered loads")
	jammers := fs.String("jammers", "none", "comma-separated jammers, oblivious and on their own seed stream: none, random:RATE, periodic:PERIOD/BURST (the first BURST slots of every PERIOD)")
	adversaries := fs.String("adversaries", "none", "comma-separated adversaries: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	trials := fs.Int("trials", 2, "independent trials per cell")
	horizon := fs.Int64("horizon", 20000, "arrival horizon in slots")
	noDrain := fs.Bool("no-drain", false, "stop at the horizon instead of draining")
	maxWindow := fs.Int("max-window", 0, "decoding-window cap (0 = default 4κ)")
	latencySamples := fs.Int("latency-samples", 0, "per-trial latency reservoir capacity (0 = engine default, -1 = off)")
	seed := fs.Uint64("seed", 1, "base random seed")
	parallelism := fs.Int("parallelism", 0, "concurrent trials (0 = GOMAXPROCS)")
	shardFlag := fs.String("shard", "", "with -worker: claim only slice k/N of the grid (e.g. 2/4)")
	cacheDir := fs.String("cache-dir", "", "persist each completed cell as a content-addressed record in this directory")
	resume := fs.Bool("resume", false, "with -cache-dir: load already-cached cells and execute only the missing ones")
	backendURL := fs.String("backend", "", "crnserve URL of a shared cell store (work-stealing alternative to -cache-dir)")
	worker := fs.Bool("worker", false, "drain the grid as a work-stealing worker against the shared store (-backend or -cache-dir)")
	assemble := fs.Bool("assemble", false, "read the full grid back from the shared store instead of running anything")
	owner := fs.String("owner", "", "with -worker: lease-owner label (default worker-<pid>)")
	leaseTTL := fs.Duration("lease-ttl", sweep.DefaultLeaseTTL, "with -worker: how long a claimed cell stays this worker's before others may steal it")
	jsonPath := fs.String("json", "", "write the grid as JSON to this path ('-' = stdout)")
	csvPath := fs.String("csv", "", "write the grid as CSV to this path ('-' = stdout)")
	benchPath := fs.String("bench", "", "write the compact benchmark artifact (per-cell headline means) to this path")
	quiet := fs.Bool("quiet", false, "suppress the table and progress output")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h is a successful exit, not an error
		}
		return errFlagParse // the FlagSet already printed the problem
	}

	setFlags := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	if *worker && *assemble {
		return fmt.Errorf("-worker and -assemble are different roles: workers drain the store, assemble reads it back — run them as separate invocations")
	}
	if *backendURL != "" && *cacheDir != "" {
		return fmt.Errorf("-backend and -cache-dir name two different stores; pick one")
	}
	if (*worker || *assemble) && *backendURL == "" && *cacheDir == "" {
		return fmt.Errorf("-worker/-assemble need a shared store: -backend URL or -cache-dir DIR")
	}
	if *backendURL != "" && !*worker && !*assemble {
		return fmt.Errorf("-backend is the shared store for -worker or -assemble; a plain run caches locally with -cache-dir")
	}
	if *resume && *backendURL != "" {
		return fmt.Errorf("-resume is the -cache-dir workflow; against a shared backend use -worker, which skips completed cells by construction")
	}
	if *resume && (*worker || *assemble) {
		return fmt.Errorf("-resume does not apply: -worker always skips completed cells and -assemble executes nothing")
	}
	if (setFlags["owner"] || setFlags["lease-ttl"]) && !*worker {
		return fmt.Errorf("-owner/-lease-ttl only apply to -worker")
	}
	if *shardFlag != "" && !*worker {
		return fmt.Errorf("-shard k/N restricts a worker's claims: run -worker -shard k/N -cache-dir DIR on each machine, copy the directories' *.json records into one directory, then run -assemble -cache-dir on it")
	}
	if *worker && (*jsonPath != "" || *csvPath != "" || *benchPath != "") {
		return fmt.Errorf("a worker does not own the full grid; run -assemble afterwards to emit artifacts")
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *resume && *cacheDir == "" {
		return fmt.Errorf("-resume needs -cache-dir (there is no cache to resume from)")
	}

	var shard sweep.Shard
	if *shardFlag != "" {
		var err error
		if shard, err = sweep.ParseShard(*shardFlag); err != nil {
			return err
		}
	}

	var spec sweep.Spec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		parsed, err := sweep.ParseSpec(data)
		if err != nil {
			return err
		}
		spec = *parsed
	} else {
		ints, err := parseInts(*kappas)
		if err != nil {
			return err
		}
		floats, err := parseFloats(*rates)
		if err != nil {
			return err
		}
		spec = sweep.Spec{
			Name:           *name,
			Models:         splitList(*models),
			Protocols:      splitList(*protocols),
			Arrivals:       splitList(*arrivals),
			Kappas:         ints,
			Rates:          floats,
			Jammers:        splitList(*jammers),
			Adversaries:    splitList(*adversaries),
			Trials:         *trials,
			Horizon:        *horizon,
			NoDrain:        *noDrain,
			MaxWindow:      *maxWindow,
			LatencySamples: *latencySamples,
			Seed:           *seed,
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}

	opts := sweep.Options{Parallelism: *parallelism, Resume: *resume, Shard: shard}
	if *backendURL != "" {
		client, err := httpstore.NewClient(*backendURL)
		if err != nil {
			return err
		}
		opts.Cache = client
	} else if *cacheDir != "" {
		store, err := cache.Open(*cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = store
	}

	// Ctrl-C (or a coordinator's SIGTERM) cancels the run between cells
	// (between trials for in-process runs); completed cells stay cached.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *assemble {
		grid, err := sweep.Assemble(ctx, spec, opts.Cache)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "crnsweep: assembled %d cells from the shared store\n", len(grid.Cells))
			if *jsonPath != "-" && *csvPath != "-" {
				fmt.Fprint(stdout, grid.Table().String())
			}
		}
		return writeGrid(grid, *jsonPath, *csvPath, *benchPath, stdout)
	}

	if !*quiet {
		total := spec.Cells()
		switch {
		case *worker && !shard.IsAll():
			fmt.Fprintf(stderr, "crnsweep: worker draining shard %s of %d cells × %d trials\n", shard, total, spec.Trials)
		case *worker:
			fmt.Fprintf(stderr, "crnsweep: worker draining %d cells × %d trials\n", total, spec.Trials)
		default:
			fmt.Fprintf(stderr, "crnsweep: %d cells × %d trials\n", total, spec.Trials)
		}
		opts.OnCell = func(done, total int, cell *sweep.CellSummary, cached bool) {
			suffix := ""
			if cached {
				suffix = " (cached)"
			}
			fmt.Fprintf(stderr, "  [%d/%d] %s thpt=%.3f%s\n",
				done, total, cell.Key(), cell.Throughput.Mean, suffix)
		}
	}
	start := time.Now()

	if *worker {
		opts.Owner = *owner
		opts.LeaseTTL = *leaseTTL
		// A stopped worker's unexpired leases become stealable once they
		// lapse.
		res, err := sweep.RunWorker(ctx, spec, opts)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stderr, "crnsweep: worker %s done in %v: executed %d, loaded %d of %d cells\n",
				res.Owner, time.Since(start).Round(time.Millisecond), res.Executed, res.Loaded, res.Total)
		}
		return nil
	}

	grid, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(stderr, "crnsweep: completed in %v\n\n", time.Since(start).Round(time.Millisecond))
		// When an artifact streams to stdout, keep stdout machine-clean:
		// the table would corrupt the JSON/CSV a pipe consumes.
		if *jsonPath != "-" && *csvPath != "-" {
			fmt.Fprint(stdout, grid.Table().String())
		}
	}
	return writeGrid(grid, *jsonPath, *csvPath, *benchPath, stdout)
}

// writeGrid emits the grid's JSON/CSV/bench artifacts ('-' = stdout;
// file writes are atomic).
func writeGrid(grid *sweep.Grid, jsonPath, csvPath, benchPath string, stdout io.Writer) error {
	if jsonPath != "" {
		if jsonPath == "-" {
			if err := report.WriteJSON(stdout, grid); err != nil {
				return err
			}
		} else if err := report.SaveJSON(jsonPath, grid); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if csvPath == "-" {
			fmt.Fprint(stdout, grid.CSV())
		} else if err := report.SaveFile(csvPath, []byte(grid.CSV())); err != nil {
			return err
		}
	}
	if benchPath != "" {
		if err := report.SaveJSON(benchPath, grid.Bench()); err != nil {
			return err
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
