// Command crnsim runs a single contention-resolution simulation on a
// chosen channel model — the Coded Radio Network Model or the classical
// collision channel — and reports throughput, backlog, latency, and
// slot statistics.
//
// The scenario flags go through the same builder as crnemu's and the
// sweep's (internal/scenario), so a pairing the protocol registry
// refuses, or a value outside its range, is a usage error (exit 2):
// -n 0 means rate×horizon packets, -window 0 means 16384, -aloha-p 0
// means 0.001, a burst window gets at least one packet, and the horizon
// must be at least 1.
//
// Usage:
//
//	crnsim [-model coded|classical[:cd]|capture] [-protocol dba|beb|aloha|genie|mw|robust|unbounded] [-kappa K] [-arrival kind] ...
//
// Examples:
//
//	crnsim -protocol dba -kappa 64 -arrival batch -n 10000
//	crnsim -protocol genie -kappa 1 -arrival poisson -rate 0.35 -horizon 200000
//	crnsim -protocol dba -kappa 256 -arrival burst -window 16384 -rate 0.9
//	crnsim -model classical:none -protocol beb -arrival batch -n 2000
//	crnsim -model classical -protocol mw -arrival bernoulli -rate 0.2
//	crnsim -protocol dba -arrival bernoulli -rate 0.5 -adversary reactive:8/64
//	crnsim -model classical:none -protocol robust -arrival batch -n 2000
//	crnsim -model capture -kappa 8 -protocol genie -arrival batch -n 2000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/asciiplot"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one parsed invocation: the scenario, the seed it derives
// the engine and protocol seeds from, and what to print.
type options struct {
	desc  scenario.Desc
	seed  uint64
	plot  bool
	trace string
}

// parse reads argv into options.  Flag errors and stray arguments come
// back as one-line errors; -h prints the usage to stderr and returns
// flag.ErrHelp.
func parse(argv []string, stderr io.Writer) (options, error) {
	var o options
	d := &o.desc
	fs := flag.NewFlagSet("crnsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&d.Model, "model", "coded", "channel model descriptor: coded[:K[/W]], classical[:none|binary|ternary], capture[:K]")
	fs.StringVar(&d.Protocol, "protocol", "dba", "protocol: dba, beb, aloha, genie, mw, robust, unbounded")
	fs.IntVar(&d.Kappa, "kappa", 64, "decoding threshold κ (coded and capture models; dba needs ≥ 6)")
	fs.StringVar(&d.Arrival, "arrival", "batch", "arrival process: batch, bernoulli, poisson, even, burst")
	fs.IntVar(&d.BatchN, "n", 10000, "batch size (arrival=batch; 0 = rate×horizon)")
	fs.Float64Var(&d.Rate, "rate", 0.5, "arrival rate (bernoulli/poisson/even) or window fill fraction (burst)")
	fs.Int64Var(&d.BurstWindow, "window", 16384, "burst window length (arrival=burst; 0 = 16384)")
	fs.Int64Var(&d.Horizon, "horizon", 100000, "slots during which arrivals occur (≥ 1)")
	fs.BoolVar(&d.Drain, "drain", true, "keep running after the horizon until the system empties")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&d.AlohaP, "aloha-p", 0.001, "static ALOHA transmission probability (protocol=aloha; 0 = 0.001)")
	fs.StringVar(&d.Adversary, "adversary", "none", "adversary: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	fs.IntVar(&d.LatencySamples, "latency-samples", 0, "latency reservoir capacity for quantiles (0 = default, -1 = off)")
	fs.BoolVar(&o.plot, "plot", true, "render the backlog time series")
	fs.StringVar(&o.trace, "trace", "", "write the backlog time series to this CSV file")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fmt.Fprintln(stderr, "Usage of crnsim:")
			fs.PrintDefaults()
		}
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	return o, nil
}

// run is main minus the process boundary: it returns the exit status,
// 2 for a usage error (a bad flag or a scenario the builder refuses)
// and 1 when the trace file cannot be written.
func run(argv []string, stdout, stderr io.Writer) int {
	o, err := parse(argv, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	var b scenario.Built
	if err == nil {
		b, err = o.desc.Build(o.seed+1, o.seed, nil)
	}
	if err != nil {
		fmt.Fprintf(stderr, "crnsim: %v\n", err)
		return 2
	}
	res := sim.Run(b.Config, b.Proto, b.Arrival)

	fmt.Fprintf(stdout, "protocol:   %s\n", res.Protocol)
	fmt.Fprintf(stdout, "arrivals:   %s (%d packets)\n", res.Arrival, res.Arrivals)
	fmt.Fprintf(stdout, "channel:    %s κ=%d  good=%d bad=%d silent=%d jammed=%d events=%d\n",
		res.Medium, res.Kappa, res.Channel.GoodSlots, res.Channel.BadSlots,
		res.Channel.SilentSlots, res.Channel.JammedSlots, res.Channel.Events)
	fmt.Fprintf(stdout, "delivered:  %d (pending %d) in %d slots\n", res.Delivered, res.Pending, res.Elapsed)
	fmt.Fprintf(stdout, "throughput: %.4f (first arrival to last delivery)\n", res.CompletionThroughput())
	fmt.Fprintf(stdout, "backlog:    max %d\n", res.MaxBacklog)
	if res.Delivered > 0 {
		if res.LatencySample != nil {
			fmt.Fprintf(stdout, "latency:    p50=%.0f p99=%.0f max=%.0f mean=%.1f slots\n",
				res.LatencyQuantile(0.50), res.LatencyQuantile(0.99),
				res.Latency.Max(), res.Latency.Mean())
		} else {
			fmt.Fprintf(stdout, "latency:    max=%.0f mean=%.1f slots (quantiles off)\n",
				res.Latency.Max(), res.Latency.Mean())
		}
	}
	if o.trace != "" {
		err := report.SaveSeriesCSV(o.trace, "slot", "backlog",
			res.BacklogSeries.T, res.BacklogSeries.V)
		if err != nil {
			fmt.Fprintf(stderr, "crnsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:      %s (%d points)\n", o.trace, res.BacklogSeries.Len())
	}
	if o.plot && res.BacklogSeries.Len() > 1 {
		p := asciiplot.Plot{
			Title: "backlog over time", XLabel: "slot", YLabel: "pending packets",
			Width: 64, Height: 12,
		}
		xs := make([]float64, res.BacklogSeries.Len())
		for i := range xs {
			xs[i] = float64(res.BacklogSeries.T[i])
		}
		p.Add(asciiplot.Series{Name: res.Protocol, X: xs, Y: res.BacklogSeries.V})
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, p.Render())
	}
	return 0
}
