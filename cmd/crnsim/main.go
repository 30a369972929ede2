// Command crnsim runs a single contention-resolution simulation on a
// chosen channel model — the Coded Radio Network Model or the classical
// collision channel — and reports throughput, backlog, latency, and
// slot statistics.
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
//	crnsim -model capture -kappa 8 -protocol unbounded -arrival batch -n 2000
package main

import (
	"flag"
	"fmt"
	"os"

	crn "repro"
	"repro/internal/asciiplot"
	"repro/internal/protocol"
	"repro/internal/report"
)

func main() {
	model := flag.String("model", "coded", "channel model descriptor: coded[:K[/W]], classical[:none|binary|ternary], capture[:K]")
	protoName := flag.String("protocol", "dba", "protocol: dba, beb, aloha, genie, mw, robust, unbounded")
	kappa := flag.Int("kappa", 64, "decoding threshold κ (coded and capture models; dba needs ≥ 6)")
	arrivalName := flag.String("arrival", "batch", "arrival process: batch, bernoulli, poisson, even, burst")
	n := flag.Int("n", 10000, "batch size (arrival=batch)")
	rate := flag.Float64("rate", 0.5, "arrival rate (bernoulli/poisson/even) or window fill fraction (burst)")
	window := flag.Int64("window", 16384, "burst window length (arrival=burst)")
	horizon := flag.Int64("horizon", 100000, "slots during which arrivals occur")
	drain := flag.Bool("drain", true, "keep running after the horizon until the system empties")
	seed := flag.Uint64("seed", 1, "random seed")
	alohaP := flag.Float64("aloha-p", 0.001, "static ALOHA transmission probability (protocol=aloha)")
	adversaryDesc := flag.String("adversary", "none", "adversary: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	latencySamples := flag.Int("latency-samples", 0, "latency reservoir capacity for quantiles (0 = default, -1 = off)")
	plot := flag.Bool("plot", true, "render the backlog time series")
	tracePath := flag.String("trace", "", "write the backlog time series to this CSV file")
	flag.Parse()

	mspec, err := crn.ParseMedium(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crnsim: %v\n", err)
		os.Exit(2)
	}
	// The registry's pairing rules, as crnemu and the sweep apply them.
	info, ok := protocol.Lookup(*protoName)
	if !ok {
		fmt.Fprintf(os.Stderr, "crnsim: unknown protocol %q\n", *protoName)
		os.Exit(2)
	}
	if info.CodedOnly && mspec.Model != "coded" {
		fmt.Fprintf(os.Stderr, "crnsim: %s is defined for the coded model; pick -model coded or another protocol\n", info.Name)
		os.Exit(2)
	}
	if info.NoCDOnly && mspec.String() != "classical:none" {
		fmt.Fprintf(os.Stderr, "crnsim: %s is a no-collision-detection protocol; pick -model classical:none, not %q\n", info.Name, mspec.String())
		os.Exit(2)
	}
	// A bare "coded" leaves Medium nil so the engine's defaults (window
	// cap 4κ) apply; anything else — another model, or a coded descriptor
	// with embedded parameters — builds the medium explicitly.
	var med crn.Medium
	if mspec != (crn.MediumSpec{Model: "coded"}) {
		med, err = mspec.Build(*kappa, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crnsim: %v\n", err)
			os.Exit(2)
		}
		*kappa = med.Kappa()
	}
	if *kappa < info.MinKappa {
		fmt.Fprintf(os.Stderr, "crnsim: %s needs κ ≥ %d, not %d\n", info.Name, info.MinKappa, *kappa)
		os.Exit(2)
	}

	var proto crn.Protocol
	switch *protoName {
	case "dba":
		proto = crn.NewDecodableBackoff(*kappa, *seed)
	case "beb":
		proto = crn.NewExponentialBackoff(*seed)
	case "aloha":
		proto = crn.NewSlottedAloha(*seed, *alohaP)
	case "genie":
		proto = crn.NewGenieAloha(*seed, 1)
	case "mw":
		proto = crn.NewMultiplicativeWeights(*seed)
	case "robust":
		proto = crn.NewRobustNoCD(*seed)
	case "unbounded":
		proto = crn.NewUnboundedNoCD(*seed)
	default:
		fmt.Fprintf(os.Stderr, "crnsim: unknown protocol %q\n", *protoName)
		os.Exit(2)
	}

	var arr crn.Arrivals
	switch *arrivalName {
	case "batch":
		arr = crn.NewBatch(*n)
		if *horizon < 1 {
			*horizon = 1
		}
	case "bernoulli":
		arr = crn.NewBernoulli(*rate)
	case "poisson":
		arr = crn.NewPoisson(*rate)
	case "even":
		arr = crn.NewEvenPaced(*rate)
	case "burst":
		arr = crn.NewWindowBurst(*window, int(*rate*float64(*window)))
	default:
		fmt.Fprintf(os.Stderr, "crnsim: unknown arrival %q\n", *arrivalName)
		os.Exit(2)
	}

	adv, err := crn.ParseAdversary(*adversaryDesc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crnsim: %v\n", err)
		os.Exit(2)
	}
	if crn.IsAdaptiveAdversary(adv) && med != nil && crn.MediumMasksSilence(med) {
		fmt.Fprintf(os.Stderr, "crnsim: adversary %q reacts to channel feedback, but model %q masks silence; pick a model with channel sensing\n", *adversaryDesc, *model)
		os.Exit(2)
	}

	res := crn.Run(crn.Config{
		Kappa:          *kappa,
		Horizon:        *horizon,
		Drain:          *drain,
		Seed:           *seed + 1,
		LatencySamples: *latencySamples,
		Medium:         med,
		Adversary:      adv,
	}, proto, arr)

	fmt.Printf("protocol:   %s\n", res.Protocol)
	fmt.Printf("arrivals:   %s (%d packets)\n", res.Arrival, res.Arrivals)
	fmt.Printf("channel:    %s κ=%d  good=%d bad=%d silent=%d jammed=%d events=%d\n",
		res.Medium, res.Kappa, res.Channel.GoodSlots, res.Channel.BadSlots,
		res.Channel.SilentSlots, res.Channel.JammedSlots, res.Channel.Events)
	fmt.Printf("delivered:  %d (pending %d) in %d slots\n", res.Delivered, res.Pending, res.Elapsed)
	fmt.Printf("throughput: %.4f (first arrival to last delivery)\n", res.CompletionThroughput())
	fmt.Printf("backlog:    max %d\n", res.MaxBacklog)
	if res.Delivered > 0 {
		if res.LatencySample != nil {
			fmt.Printf("latency:    p50=%.0f p99=%.0f max=%.0f mean=%.1f slots\n",
				res.LatencyQuantile(0.50), res.LatencyQuantile(0.99),
				res.Latency.Max(), res.Latency.Mean())
		} else {
			fmt.Printf("latency:    max=%.0f mean=%.1f slots (quantiles off)\n",
				res.Latency.Max(), res.Latency.Mean())
		}
	}
	if *tracePath != "" {
		err := report.SaveSeriesCSV(*tracePath, "slot", "backlog",
			res.BacklogSeries.T, res.BacklogSeries.V)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crnsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace:      %s (%d points)\n", *tracePath, res.BacklogSeries.Len())
	}
	if *plot && res.BacklogSeries.Len() > 1 {
		p := asciiplot.Plot{
			Title: "backlog over time", XLabel: "slot", YLabel: "pending packets",
			Width: 64, Height: 12,
		}
		xs := make([]float64, res.BacklogSeries.Len())
		for i := range xs {
			xs[i] = float64(res.BacklogSeries.T[i])
		}
		p.Add(asciiplot.Series{Name: res.Protocol, X: xs, Y: res.BacklogSeries.V})
		fmt.Println()
		fmt.Print(p.Render())
	}
}
