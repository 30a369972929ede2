// Command crnemu runs a slot-synchronized real-network emulation of a
// contention-resolution scenario: every station is its own goroutine
// (or OS process) holding a full protocol replica, and a coordinator
// adjudicates each slot on the chosen channel model over a framed wire
// protocol (see internal/emu).  Over a lossless transport the emulation
// reproduces the simulator's Result exactly; -transport sim runs the
// plain simulator on the identical configuration and emits the same
// artifact, so the equivalence is checkable with cmp(1).
//
// Usage:
//
//	crnemu [-stations N] [-transport inproc|udp|sim] [-model M] [-protocol P] ...
//	crnemu -listen :9753 -stations 2 ...      # multi-process coordinator
//	crnemu -join HOST:9753                    # multi-process station
//
// Examples:
//
//	crnemu -protocol dba -kappa 8 -stations 4 -arrival batch -n 500
//	crnemu -transport udp -protocol beb -model classical:ternary -arrival bernoulli -rate 0.02 -horizon 20000
//	crnemu -transport udp -drop 0.01 -dup 0.01 -stats-interval 1s -protocol dba -kappa 8 -n 2000
//	crnemu -transport sim -protocol dba -kappa 8 -n 500 -json
//
// A bad flag, a stray argument, conflicting modes or a scenario the
// builder refuses (internal/scenario, as for crnsim) exits 2 before
// anything starts; an emulation that fails once started exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/emu"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks an error that is the invocation's own: a bad flag or
// stray argument, conflicting modes, or a scenario the builder refuses.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// run is main minus the process boundary: it returns the exit status,
// 2 for a usage error and 1 for an emulation that failed once started
// (-h exits 0).  The error is reported as one "crnemu: …" line on
// stderr.
func run(argv []string, stdout, stderr io.Writer) int {
	err := emulate(argv, stdout, stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintf(stderr, "crnemu: %v\n", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// artifact is the deterministic JSON the -json flag emits.  It carries
// the engine Result plus explicit latency aggregates (the Result's
// Summary/Reservoir fields are opaque to encoding/json), and nothing
// transport-dependent — so emulation and -transport sim artifacts for
// the same scenario are byte-comparable.
type artifact struct {
	Result  *sim.Result      `json:"result"`
	Latency *latencyArtifact `json:"latency,omitempty"`
}

type latencyArtifact struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

func makeArtifact(res *sim.Result) artifact {
	a := artifact{Result: res}
	if res.Delivered > 0 && res.LatencySample != nil && res.LatencySample.Len() > 0 {
		a.Latency = &latencyArtifact{
			N:    res.Latency.N(),
			Mean: res.Latency.Mean(),
			Min:  res.Latency.Min(),
			Max:  res.Latency.Max(),
			P50:  res.LatencyQuantile(0.50),
			P90:  res.LatencyQuantile(0.90),
			P99:  res.LatencyQuantile(0.99),
		}
	}
	return a
}

func emitResult(w io.Writer, res *sim.Result, asJSON bool) error {
	if asJSON {
		return json.NewEncoder(w).Encode(makeArtifact(res))
	}
	fmt.Fprintf(w, "protocol:   %s\n", res.Protocol)
	fmt.Fprintf(w, "arrivals:   %s (%d packets)\n", res.Arrival, res.Arrivals)
	fmt.Fprintf(w, "channel:    %s κ=%d  good=%d bad=%d silent=%d jammed=%d events=%d\n",
		res.Medium, res.Kappa, res.Channel.GoodSlots, res.Channel.BadSlots,
		res.Channel.SilentSlots, res.Channel.JammedSlots, res.Channel.Events)
	fmt.Fprintf(w, "delivered:  %d (pending %d) in %d slots\n", res.Delivered, res.Pending, res.Elapsed)
	fmt.Fprintf(w, "throughput: %.4f (first arrival to last delivery)\n", res.CompletionThroughput())
	fmt.Fprintf(w, "backlog:    max %d\n", res.MaxBacklog)
	if res.Delivered > 0 && res.LatencySample != nil {
		fmt.Fprintf(w, "latency:    p50=%.0f p99=%.0f max=%.0f mean=%.1f slots\n",
			res.LatencyQuantile(0.50), res.LatencyQuantile(0.99),
			res.Latency.Max(), res.Latency.Mean())
	}
	return nil
}

// statsLine renders one transport's counters the way the ticker and the
// final summary both print them.
func statsLine(label string, s emu.ConnStats) string {
	return fmt.Sprintf("%s frames=%d/%d bytes=%d/%d segs=%d/%d acks=%d/%d retrans=%d dup=%d faultDrop=%d faultDup=%d q=%d/%d rtt=%.2fms",
		label, s.FramesSent, s.FramesRecv, s.BytesSent, s.BytesRecv,
		s.SegsSent, s.SegsRecv, s.AcksSent, s.AcksRecv, s.Retransmits, s.DupSegs,
		s.FaultDrops, s.FaultDups, s.SendQueue, s.RecvQueue, s.RTTMillis)
}

// watchStats prints per-link stats to w every interval until the
// returned stop is called; stop returns once the last line is out.
// Rates are derivable from successive cumulative lines.
func watchStats(w io.Writer, interval time.Duration, links []emu.Transport) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for i, l := range links {
					fmt.Fprintln(w, "crnemu: "+statsLine(fmt.Sprintf("station %d:", i), l.Stats()))
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// emulate parses argv and runs the emulation it names, so flag handling
// and every transport are testable in-process.
func emulate(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnemu", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	model := fs.String("model", "coded", "channel model descriptor: coded[:K[/W]], classical[:none|binary|ternary], capture[:K]")
	protoName := fs.String("protocol", "dba", "protocol: dba, beb, aloha, genie, mw, robust, unbounded")
	kappa := fs.Int("kappa", 64, "decoding threshold κ when the model descriptor embeds none")
	arrivalName := fs.String("arrival", "batch", "arrival process: batch, bernoulli, poisson, even, burst")
	n := fs.Int("n", 10000, "batch size (arrival=batch)")
	rate := fs.Float64("rate", 0.5, "arrival rate (bernoulli/poisson/even) or window fill fraction (burst)")
	window := fs.Int("window", 16384, "burst window length (arrival=burst)")
	horizon := fs.Int64("horizon", 100000, "slots during which arrivals occur")
	drain := fs.Bool("drain", true, "keep running after the horizon until the system empties")
	seed := fs.Uint64("seed", 1, "random seed")
	alohaP := fs.Float64("aloha-p", 0.001, "static ALOHA transmission probability (protocol=aloha)")
	adversaryDesc := fs.String("adversary", "none", "adversary: none, random:RATE, burst:B/GAP, reactive:TRIGGER/BURST, sigmarho:SIGMA/RHO")
	latencySamples := fs.Int("latency-samples", 0, "latency reservoir capacity for quantiles (0 = default, -1 = off)")

	stations := fs.Int("stations", 4, "number of stations packets are partitioned over")
	transport := fs.String("transport", "inproc", "swarm transport: inproc, udp (loopback), or sim (plain simulator, same artifact)")
	listenAddr := fs.String("listen", "", "coordinate a multi-process run on this UDP address (host:port) instead of swarm mode")
	joinAddr := fs.String("join", "", "run as one station joining the coordinator at this UDP address")
	dropRate := fs.Float64("drop", 0, "inject: drop each outgoing datagram with this probability (UDP)")
	dupRate := fs.Float64("dup", 0, "inject: duplicate each outgoing datagram with this probability (UDP)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed of the fault-injection stream")
	slotTimeout := fs.Duration("slot-timeout", 10*time.Second, "coordinator patience per station per slot barrier")
	statsInterval := fs.Duration("stats-interval", 0, "print live per-connection transport stats to stderr at this period (0 = off)")
	asJSON := fs.Bool("json", false, "emit the run artifact as JSON on stdout")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fmt.Fprintln(stderr, "Usage of crnemu:")
			fs.PrintDefaults()
			return err
		}
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %v", fs.Args())
	}
	switch *transport {
	case "inproc", "udp", "sim":
	default:
		return usagef("unknown transport %q (want inproc, udp, or sim)", *transport)
	}
	transportSet := false
	fs.Visit(func(f *flag.Flag) { transportSet = transportSet || f.Name == "transport" })
	if *listenAddr != "" && *joinAddr != "" {
		return usagef("-listen coordinates and -join runs a station; start them as separate processes")
	}
	if transportSet && (*listenAddr != "" || *joinAddr != "") {
		return usagef("-transport selects a swarm run; -listen and -join always link separate processes over UDP")
	}

	fault := emu.Fault{DropRate: *dropRate, DupRate: *dupRate, Seed: *faultSeed}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Station process: join the coordinator and obey its slot barrier.
	if *joinAddr != "" {
		t, err := emu.DialUDP(*joinAddr, fault)
		if err != nil {
			return err
		}
		defer t.Close()
		stop := watchStats(stderr, *statsInterval, []emu.Transport{t})
		err = emu.RunStation(t, 2*(*slotTimeout))
		stop()
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, "crnemu: "+statsLine("station done:", t.Stats()))
		return nil
	}

	cfg := emu.Config{
		Protocol:       *protoName,
		Medium:         *model,
		Kappa:          *kappa,
		Arrival:        *arrivalName,
		Rate:           *rate,
		BatchN:         *n,
		BurstWindow:    *window,
		AlohaP:         *alohaP,
		Adversary:      *adversaryDesc,
		Horizon:        *horizon,
		Drain:          *drain,
		Seed:           *seed,
		LatencySamples: *latencySamples,
		Stations:       *stations,
		Transport:      *transport,
		Fault:          fault,
		SlotTimeout:    *slotTimeout,
	}
	if err := cfg.Check(); err != nil {
		return usageError{err}
	}
	// Reference mode: the simulator on the identical configuration,
	// emitting the identical artifact — the cmp target for the
	// lossless-equals-simulator gate.
	if *transport == "sim" {
		res, err := emu.SimReference(cfg)
		if err != nil {
			return err
		}
		return emitResult(stdout, res, *asJSON)
	}

	// Establish the station links, spawning local stations per mode.
	var links []emu.Transport
	var wg sync.WaitGroup
	stationErrs := make([]error, cfg.Stations)
	spawn := func(i int, t emu.Transport) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer t.Close()
			stationErrs[i] = emu.RunStation(t, 2*(*slotTimeout))
		}()
	}
	switch {
	case *listenAddr != "":
		ln, err := emu.ListenUDP(*listenAddr, fault)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "crnemu: coordinating on %s, waiting for %d stations\n", ln.Addr(), cfg.Stations)
		for i := 0; i < cfg.Stations; i++ {
			t, err := ln.Accept(*slotTimeout * 6)
			if err != nil {
				return fmt.Errorf("accepting station %d/%d: %w", i+1, cfg.Stations, err)
			}
			fmt.Fprintf(stderr, "crnemu: station %d joined\n", i)
			links = append(links, t)
		}
	case *transport == "inproc":
		for i := 0; i < cfg.Stations; i++ {
			a, b := emu.NewPipe()
			links = append(links, a)
			spawn(i, b)
		}
	case *transport == "udp":
		ln, err := emu.ListenUDP("127.0.0.1:0", fault)
		if err != nil {
			return err
		}
		defer ln.Close()
		for i := 0; i < cfg.Stations; i++ {
			stFault := fault
			if fault.DropRate > 0 || fault.DupRate > 0 {
				stFault.Seed = fault.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1))
			}
			t, err := emu.DialUDP(ln.Addr(), stFault)
			if err != nil {
				return err
			}
			spawn(i, t)
		}
		for i := 0; i < cfg.Stations; i++ {
			t, err := ln.Accept(*slotTimeout)
			if err != nil {
				return fmt.Errorf("accepting station %d/%d: %w", i+1, cfg.Stations, err)
			}
			links = append(links, t)
		}
	}

	stop := watchStats(stderr, *statsInterval, links)
	res, err := emu.Coordinate(ctx, cfg, links)
	stop()
	for i, l := range links {
		if err == nil {
			// Let the final Done frames be acknowledged before teardown so
			// lossy links do not orphan their station.
			deadline := time.Now().Add(2 * time.Second)
			for l.Stats().SendQueue > 0 && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		fmt.Fprintln(stderr, "crnemu: "+statsLine(fmt.Sprintf("station %d:", i), l.Stats()))
		l.Close()
	}
	wg.Wait()
	if err != nil {
		return err
	}
	for i, serr := range stationErrs {
		if serr != nil {
			fmt.Fprintf(stderr, "crnemu: station %d: %v\n", i, serr)
		}
	}
	return emitResult(stdout, res, *asJSON)
}
