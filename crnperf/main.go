// Command crnperf is the repository benchmark: three long-running
// workloads, each driven from this one process, that time the simulator,
// the sweep layer and the emulator end to end, plus a separate traced run
// that times the calls into each layer's public functions from outside.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	crnperf --workload dba-batch|grid-drain|emu-udp --seed N --seconds S --trace 0|1
//
// Every workload makes its inputs from --seed, sets up five times (the
// median is setup_s), then repeats its unit of work until --seconds are
// spent and reports medians over the repetitions.  Each repetition's
// output is checked; a mismatch counts as a failed attempt.
//
// With --trace 0 the run prints the end-to-end metrics, measured with
// tracing off.  With --trace 1 it spends the first half of the budget on
// untraced repetitions and the second half on traced ones, and prints the
// per-layer metrics (medians over the traced repetitions) together with
// trace_overhead_ratio, the traced wall time over the untraced median.
// A layer the workload never calls reports 0.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// procStart approximates process start: package initialization runs
// before main, after the runtime is up.
var procStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 5

// minReps is the fewest timed repetitions a run makes, whatever the
// budget, so every median has at least this many samples.
const minReps = 3

// hardLimit bounds the whole process: a run that cannot finish in time
// exits without a result instead of hanging.
const hardLimit = 170 * time.Second

// instance is one set-up workload.  run is the timed unit of work; check
// validates its output (untimed) and reports the work it did.
type instance interface {
	run() any
	check(out any) sample
	// traced repeats one unit through the traced loops, returning the
	// per-layer values, the traced wall time and the outcome of the
	// traced output checks.
	traced(spans *spanLog) (values map[string]float64, wall time.Duration, err error)
	close()
}

// sample is one checked repetition.
type sample struct {
	wall       float64 // seconds in the timed call
	allocB     float64 // heap bytes allocated during the timed call
	slots      float64 // simulated (or emulated) slots
	cells      float64 // grid cells (one per run for the single-run workloads)
	throughput float64 // completion throughput, delivered/(last-first+1)
	err        error
}

type workload struct {
	name string
	// procs, if non-zero, is the GOMAXPROCS the workload runs at.
	procs int
	setup func(seed uint64, work string) (instance, error)
}

var workloads = []workload{
	{"dba-batch", 0, setupDBABatch},
	{"grid-drain", 0, setupGridDrain},
	// The emulator runs on one P: with two, every slot-barrier wakeup
	// crosses CPUs, and on a shared 2-vCPU Xeon VM that latency swung
	// slots_per_s by 17% (quartile spread over five seeds) against 4% on
	// one P.
	{"emu-udp", 1, setupEmuUDP},
}

type metricDef struct{ name, unit string }

// endToEnd mirrors BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"throughput", "ratio"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: dba-batch, grid-drain or emu-udp")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	workDir := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for cache stores and trace files")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "crnperf: usage: --workload dba-batch|grid-drain|emu-udp --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "crnperf: %s did not finish within %v\n", *name, hardLimit)
		os.Exit(1)
	})
	if wl.procs > 0 {
		runtime.GOMAXPROCS(wl.procs)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*workDir, wl.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	// Set up several times; the median is setup_s and the last instance
	// is measured.  The first sample counts from process start.
	var setups []float64
	var inst instance
	t0 := procStart
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		inst, err = wl.setup(*seed, work)
		if err != nil {
			inst = nil
			fmt.Fprintf(os.Stderr, "crnperf: %s: setup: %v\n", wl.name, err)
			break
		}
		setups = append(setups, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if inst == nil {
		// Set-up itself failed: report the failure as the run's outcome.
		emit(result{Attempted: 1, Failed: 1, Metrics: metricsOf(defs, nil)})
		return
	}
	defer inst.close()

	budget := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		emit(tracedRun(inst, budget, wl.name, *seed, work))
	} else {
		emit(untracedRun(inst, budget, setups))
	}
}

// untracedRun measures the end-to-end metrics with tracing off.
func untracedRun(inst instance, budget time.Duration, setups []float64) result {
	samples := timedReps(inst, budget)
	res := tally(samples)
	var slots, cells, thpt, alloc []float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		slots = append(slots, s.slots/s.wall)
		cells = append(cells, s.cells/s.wall)
		thpt = append(thpt, s.throughput)
		alloc = append(alloc, s.allocB/1e6)
	}
	vals := map[string]float64{
		"setup_s":     median(setups),
		"slots_per_s": median(slots),
		"cells_per_s": median(cells),
		"throughput":  median(thpt),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": peakRSSMB(),
	}
	res.Metrics = metricsOf(endToEnd, vals)
	return res
}

// tracedRun spends half the budget on untraced repetitions (the overhead
// baseline and the reference outputs the traced loops are checked
// against) and the rest on traced ones.
func tracedRun(inst instance, budget time.Duration, name string, seed uint64, outDir string) result {
	samples := timedReps(inst, budget/2)
	res := tally(samples)
	var walls []float64
	for _, s := range samples {
		if s.err == nil {
			walls = append(walls, s.wall)
		}
	}
	base := median(walls)

	spans := newSpanLog()
	per := map[string][]float64{}
	start := time.Now()
	var last time.Duration
	for reps := 0; reps < 1 || time.Since(start)+last <= budget-budget/2; reps++ {
		runtime.GC()
		t := time.Now()
		vals, wall, err := inst.traced(spans)
		last = time.Since(t)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "crnperf: traced repetition %d: %v\n", reps, err)
			continue
		}
		if base > 0 {
			vals["trace_overhead_ratio"] = wall.Seconds() / base
		}
		spans.Reps = append(spans.Reps, vals)
		for k, v := range vals {
			per[k] = append(per[k], v)
		}
	}
	res.Correct = res.Failed == 0
	vals := map[string]float64{}
	for k, vs := range per {
		vals[k] = median(vs)
	}
	res.Metrics = metricsOf(perLayer, vals)
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			fmt.Fprintf(os.Stderr, "crnperf: traced metric %s is not declared\n", k)
			res.Failed++
			res.Correct = false
		}
	}
	path := filepath.Join(filepath.Dir(outDir), fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := spans.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "crnperf: writing spans: %v\n", err)
	}
	return res
}

// timedReps repeats the instance's unit of work until the budget is
// spent (at least minReps times).  A repetition starts only when the
// previous one's duration still fits, and each starts from a collected
// heap, as a fresh process would.
func timedReps(inst instance, budget time.Duration) []sample {
	var out []sample
	start := time.Now()
	var last time.Duration
	for len(out) < minReps || time.Since(start)+last <= budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		o := inst.run()
		wall := time.Since(t)
		runtime.ReadMemStats(&m1)
		s := inst.check(o)
		s.wall = wall.Seconds()
		s.allocB = float64(m1.TotalAlloc - m0.TotalAlloc)
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "crnperf: repetition %d: %v\n", len(out), s.err)
		} else {
			fmt.Fprintf(os.Stderr, "crnperf: repetition %d: %.4fs %.1fMB\n", len(out), s.wall, s.allocB/1e6)
		}
		out = append(out, s)
		last = wall
	}
	return out
}

func tally(samples []sample) result {
	res := result{Attempted: len(samples)}
	for _, s := range samples {
		if s.err != nil {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// metricsOf renders every declared metric; an undeclared value is
// dropped (the caller reports it) and a missing one reads 0.
func metricsOf(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func emit(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "crnperf: %v\n", err)
	os.Exit(1)
}
