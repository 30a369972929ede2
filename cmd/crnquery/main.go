// Command crnquery is the analytics CLI over the repo's sweep
// artifacts: it lists, filters, and diffs grid cells across runs and
// commits.  Every source kind the repo produces is accepted
// interchangeably — a grid JSON, a committed BENCH_sweep.json, a
// cell-cache directory, or a live crnserve URL — and every report is
// deterministic: same inputs, same bytes, so reports are diffable
// artifacts themselves.  Engine benchmark artifacts are compared by
// crnbench -compare.
//
// Usage:
//
//	crnquery list -src SOURCE [-where SELECTOR] [-csv] [-out FILE]
//	crnquery diff -a SOURCE -b SOURCE [-where SELECTOR] [-changed] [-csv] [-out FILE]
//
// A SOURCE is a grid artifact (crnsweep -json), a benchmark artifact
// (crnsweep -bench), a cell-cache directory (crnsweep -cache-dir), or
// a crnserve URL (http://host:port).  A SELECTOR is comma-separated
// scenario coordinates, e.g. "protocol=dba,kappa=8,rate=0.3".
//
// Examples:
//
//	crnquery list -src BENCH_sweep.json -where protocol=dba
//	crnquery diff -a BENCH_sweep.json -b /tmp/bench.json -changed
//	crnquery diff -a http://coordinator:8771 -b .sweep-cache -csv -out diff.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/query"
	"repro/internal/report"
)

var (
	errFlagParse = errors.New("flag parse error")
	// errHelpShown stops a subcommand after -h printed its usage; run
	// translates it to success.
	errHelpShown = errors.New("help shown")
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "crnquery: %v\n", err)
		}
		os.Exit(1)
	}
}

const usage = `usage:
  crnquery list -src SOURCE [-where SELECTOR] [-csv] [-out FILE]
  crnquery diff -a SOURCE -b SOURCE [-where SELECTOR] [-changed] [-csv] [-out FILE]

A SOURCE is a grid artifact, a benchmark artifact, a cell-cache
directory, or a crnserve URL.
`

// run is main minus the process boundary, for tests.
func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) == 0 {
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("no subcommand")
	}
	var err error
	switch argv[0] {
	case "list":
		err = runList(argv[1:], stdout, stderr)
	case "diff":
		err = runDiff(argv[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stderr, usage)
		return nil
	default:
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("unknown subcommand %q", argv[0])
	}
	if errors.Is(err, errHelpShown) {
		return nil
	}
	return err
}

// emit writes a report to -out (atomically) or stdout.
func emit(stdout io.Writer, outPath, text string) error {
	if outPath == "" {
		_, err := io.WriteString(stdout, text)
		return err
	}
	return report.SaveFile(outPath, []byte(text))
}

func parseFlags(fs *flag.FlagSet, argv []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return errHelpShown
		}
		return errFlagParse
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v (sources are named by flags)", fs.Args())
	}
	return nil
}

func runList(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnquery list", flag.ContinueOnError)
	src := fs.String("src", "", "source to list (required): grid/bench artifact, cache dir, or crnserve URL")
	where := fs.String("where", "", "selector: comma-separated scenario coordinates, e.g. protocol=dba,kappa=8")
	csv := fs.Bool("csv", false, "emit CSV instead of markdown")
	out := fs.String("out", "", "write the report to this file (atomic) instead of stdout")
	if err := parseFlags(fs, argv, stderr); err != nil {
		return err
	}
	if *src == "" {
		return fmt.Errorf("list: -src is required")
	}
	sel, err := query.ParseSelector(*where)
	if err != nil {
		return err
	}
	set, err := query.Load(*src)
	if err != nil {
		return err
	}
	set = set.Filter(sel)
	if *csv {
		return emit(stdout, *out, set.CSV())
	}
	return emit(stdout, *out, set.Markdown())
}

func runDiff(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnquery diff", flag.ContinueOnError)
	a := fs.String("a", "", "left source (required)")
	b := fs.String("b", "", "right source (required)")
	where := fs.String("where", "", "selector applied to both sides before the join")
	changed := fs.Bool("changed", false, "fold unchanged cells into a count")
	csv := fs.Bool("csv", false, "emit CSV instead of markdown")
	out := fs.String("out", "", "write the report to this file (atomic) instead of stdout")
	gate := fs.Bool("gate", false, "exit nonzero when the shared cells differ (one-sided keys are reported but not gated)")
	if err := parseFlags(fs, argv, stderr); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return fmt.Errorf("diff: -a and -b are both required")
	}
	sel, err := query.ParseSelector(*where)
	if err != nil {
		return err
	}
	setA, err := query.Load(*a)
	if err != nil {
		return err
	}
	setB, err := query.Load(*b)
	if err != nil {
		return err
	}
	d := query.Compare(setA.Filter(sel), setB.Filter(sel))
	text := d.Markdown(*changed)
	if *csv {
		text = d.CSV(*changed)
	}
	if err := emit(stdout, *out, text); err != nil {
		return err
	}
	if *gate && d.Changed() > 0 {
		return fmt.Errorf("diff: %d of %d shared cells changed", d.Changed(), len(d.Deltas))
	}
	return nil
}
