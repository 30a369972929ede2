// Package perf is the engine-performance harness behind cmd/crnbench:
// it times the simulation engine itself — slots per second, heap
// allocations per slot, bytes allocated per trial — across a
// deterministic protocol × medium × adversary × workload × n grid, and
// reduces the measurements to the diffable BENCH_engine.json artifact
// that tracks the engine's performance trajectory across commits.
//
// The grid and the simulation outcomes inside each cell (slots,
// arrivals, deliveries, peak bookkeeping) are deterministic; the timing
// numbers are host-dependent and recorded for trajectory, not for
// byte-stability.  Check validates an artifact structurally — every
// expected cell present, counters sane — and gates the steady-state
// classical genie and beb cells' allocations per slot (the former is the
// configuration BenchmarkClassicalPerSlot pins at 0 allocs/op).
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Scale selects grid sizing: quick is CI-sized (seconds), full reaches
// the n=10^6 large-batch regime (minutes).
type Scale string

const (
	// Quick is the CI-sized grid.
	Quick Scale = "quick"
	// Full reaches n = 10^6 batches.
	Full Scale = "full"
)

// Case is one cell of the engine-benchmark grid.
type Case struct {
	Protocol  string  `json:"protocol"`  // dba, genie, beb, mw
	Model     string  `json:"model"`     // coded, classical:ternary
	Adversary string  `json:"adversary"` // none or an adversary descriptor
	Workload  string  `json:"workload"`  // "batch" or "steady:RATE"
	Kappa     int     `json:"kappa"`
	N         int     `json:"n"`    // batch size, or horizon for steady workloads
	Rate      float64 `json:"rate"` // steady arrival rate (0 for batch)
}

// Key renders the cell coordinates; it is the artifact's join key.
func (c Case) Key() string {
	return fmt.Sprintf("%s/%s/adv=%s/%s/k=%d/n=%d",
		c.Protocol, c.Model, c.Adversary, c.Workload, c.Kappa, c.N)
}

// combo is a protocol/model pairing with its per-protocol sizing: the
// steady-state arrival rate it is stable under, and the largest batch a
// full-scale run asks of it (baselines complete batches far slower than
// dba, whose O(joiners)-per-slot epochs absorb 10^6 packets).
type combo struct {
	protocol, model string
	kappa           int
	steadyRate      float64
	batchCap        int
}

func combos() []combo {
	return []combo{
		{"dba", "coded", 64, 0.8, 1 << 30},
		{"genie", "coded", 64, 0.25, 200_000},
		{"genie", "classical:ternary", 1, 0.25, 200_000},
		{"beb", "classical:ternary", 1, 0.15, 20_000},
		{"mw", "classical:ternary", 1, 0.15, 20_000},
	}
}

// Cases returns the deterministic grid for a scale: every
// protocol×model combo crossed with the adversary axis over the batch
// sizes it can complete, plus one steady-state (even-paced) cell per
// combo that measures the pure per-slot path.
func Cases(scale Scale) []Case {
	batchNs := []int{2_000, 10_000}
	steadyN := 50_000
	if scale == Full {
		batchNs = []int{10_000, 100_000, 1_000_000}
		steadyN = 1_000_000
	}
	advs := []string{"none", "random:0.05"}
	var cases []Case
	for _, cb := range combos() {
		for _, adv := range advs {
			for _, n := range batchNs {
				if n > cb.batchCap {
					continue
				}
				cases = append(cases, Case{Protocol: cb.protocol, Model: cb.model,
					Adversary: adv, Workload: "batch", Kappa: cb.kappa, N: n})
			}
		}
	}
	for _, cb := range combos() {
		cases = append(cases, Case{Protocol: cb.protocol, Model: cb.model,
			Adversary: "none", Workload: fmt.Sprintf("steady:%.2f", cb.steadyRate),
			Kappa: cb.kappa, N: steadyN, Rate: cb.steadyRate})
	}
	return cases
}

// GateKeys returns the keys of the allocation-gate cells: the
// steady-state classical genie cell (the configuration
// BenchmarkClassicalPerSlot holds at 0 allocs/op) and the steady-state
// classical beb cell (the typed schedule heap and arena bookkeeping).
func GateKeys(scale Scale) []string {
	var keys []string
	for _, proto := range []string{"genie", "beb"} {
		for _, c := range Cases(scale) {
			if c.Protocol == proto && c.Model == "classical:ternary" && c.Rate != 0 {
				keys = append(keys, c.Key())
			}
		}
	}
	if len(keys) != 2 {
		panic("perf: grid lost a gate cell")
	}
	return keys
}

// Measurement is one cell's result: deterministic simulation outcomes
// plus host-dependent timing.
type Measurement struct {
	Key           string  `json:"key"`
	Slots         int64   `json:"slots"`
	Arrivals      int64   `json:"arrivals"`
	Delivered     int64   `json:"delivered"`
	PeakInFlight  int     `json:"peak_in_flight"`
	SlotsPerSec   float64 `json:"slots_per_sec"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	BytesPerTrial float64 `json:"bytes_per_trial"`
}

// Artifact is the BENCH_engine.json payload.
type Artifact struct {
	Name   string        `json:"name"`
	Scale  string        `json:"scale"`
	Seed   uint64        `json:"seed"`
	Trials int           `json:"trials"`
	Cells  []Measurement `json:"cells"`
}

// Options tunes a harness run.
type Options struct {
	// Scale selects the grid ("" = Quick).
	Scale Scale
	// Trials per cell (0 = 3); timing aggregates over all of them.
	Trials int
	// Seed derives every trial's seed (0 = 1).
	Seed uint64
	// OnCell, if set, is called after each cell completes.
	OnCell func(done, total int, m *Measurement)
}

// protoSeedSalt decorrelates the protocol rng from the trial seed the
// engine consumes for arrivals (mirrors the sweep executor's salt).
const protoSeedSalt = 0x70657266 // "perf"

// Run executes the grid serially (timing needs an otherwise-idle
// process) and returns the artifact.
func Run(opts Options) *Artifact {
	scale := opts.Scale
	if scale == "" {
		scale = Quick
	}
	trials := opts.Trials
	if trials == 0 {
		trials = 3
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	cases := Cases(scale)
	art := &Artifact{Name: "engine", Scale: string(scale), Seed: seed, Trials: trials,
		Cells: make([]Measurement, 0, len(cases))}
	for i, c := range cases {
		m := measure(c, seed, trials)
		art.Cells = append(art.Cells, m)
		if opts.OnCell != nil {
			opts.OnCell(i+1, len(cases), &art.Cells[len(art.Cells)-1])
		}
	}
	return art
}

// measure runs one cell's trials back to back, timing wall clock and
// heap traffic around each run.
func measure(c Case, seed uint64, trials int) Measurement {
	m := Measurement{Key: c.Key()}
	// Settle the heap so one cell's garbage is not charged to the next
	// cell's wall clock.  (Mallocs/TotalAlloc are monotonic counters,
	// so the allocation numbers are GC-independent either way.)
	runtime.GC()
	var ms runtime.MemStats
	var elapsed time.Duration
	var mallocs, bytes uint64
	seedGen := rng.New(seed ^ hashKey(c.Key()))
	for t := 0; t < trials; t++ {
		trialSeed := seedGen.Uint64()
		cfg, proto, arr := build(c, trialSeed)
		runtime.ReadMemStats(&ms)
		m0, b0 := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		res := sim.Run(cfg, proto, arr)
		elapsed += time.Since(start)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - m0
		bytes += ms.TotalAlloc - b0
		m.Slots += res.Elapsed
		m.Arrivals += res.Arrivals
		m.Delivered += res.Delivered
		if res.PeakInFlight > m.PeakInFlight {
			m.PeakInFlight = res.PeakInFlight
		}
	}
	if m.Slots > 0 {
		m.SlotsPerSec = round(float64(m.Slots)/elapsed.Seconds(), 0)
		m.AllocsPerSlot = round(float64(mallocs)/float64(m.Slots), 4)
	}
	m.BytesPerTrial = round(float64(bytes)/float64(trials), 0)
	return m
}

// build constructs one trial's engine inputs.  Components are stateful:
// every trial gets fresh instances.
func build(c Case, seed uint64) (sim.Config, protocol.Protocol, arrival.Process) {
	cfg := sim.Config{Kappa: c.Kappa, Seed: seed}
	if c.Model != "coded" {
		med, err := medium.New(c.Model, c.Kappa, 0)
		if err != nil {
			panic(err)
		}
		cfg.Medium = med
	}
	adv, err := adversary.Parse(c.Adversary)
	if err != nil {
		panic(err)
	}
	cfg.Adversary = adv
	var proto protocol.Protocol
	switch c.Protocol {
	case "dba":
		proto = core.New(c.Kappa, rng.New(seed^protoSeedSalt))
	case "genie":
		proto = baseline.NewGenieAloha(rng.New(seed^protoSeedSalt), 1)
	case "beb":
		proto = baseline.NewExponentialBackoff(rng.New(seed ^ protoSeedSalt))
	case "mw":
		proto = baseline.NewMultiplicativeWeights(rng.New(seed^protoSeedSalt), baseline.DefaultMWConfig())
	default:
		panic(fmt.Sprintf("perf: unknown protocol %q", c.Protocol))
	}
	var arr arrival.Process
	if c.Rate > 0 {
		cfg.Horizon = int64(c.N)
		cfg.Drain = true
		arr = arrival.NewEvenPaced(c.Rate)
	} else {
		cfg.Horizon = 1
		cfg.Drain = true
		cfg.DrainLimit = 64*int64(c.N) + 1<<21
		arr = &arrival.Batch{At: 0, N: c.N}
	}
	return cfg, proto, arr
}

// hashKey folds a cell key into a seed perturbation (FNV-1a), so every
// cell draws decorrelated trial seeds from the artifact seed.
func hashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func round(x float64, decimals int) float64 {
	p := 1.0
	for i := 0; i < decimals; i++ {
		p *= 10
	}
	return float64(int64(x*p+0.5)) / p
}

// GateAllocsPerSlot is the regression threshold Check applies to the
// gate cells: the steady-state classical per-slot path allocates only
// setup (a few hundred allocations amortized over ≥50k slots), so
// anything near one allocation per slot is a regression.
const GateAllocsPerSlot = 0.02

// Check validates an artifact against the grid it claims to cover:
// every expected cell present exactly once with sane counters, and every
// allocation-gate cell below threshold.  It returns the first problem
// found.
func Check(a *Artifact, scale Scale) error {
	if a == nil {
		return fmt.Errorf("perf: nil artifact")
	}
	byKey := make(map[string]*Measurement, len(a.Cells))
	for i := range a.Cells {
		m := &a.Cells[i]
		if byKey[m.Key] != nil {
			return fmt.Errorf("perf: duplicate cell %q", m.Key)
		}
		byKey[m.Key] = m
	}
	cases := Cases(scale)
	if len(a.Cells) != len(cases) {
		return fmt.Errorf("perf: artifact has %d cells, grid has %d", len(a.Cells), len(cases))
	}
	for _, c := range cases {
		m := byKey[c.Key()]
		if m == nil {
			return fmt.Errorf("perf: grid cell %q missing from artifact", c.Key())
		}
		if m.Slots <= 0 || m.Arrivals <= 0 || m.Delivered <= 0 {
			return fmt.Errorf("perf: cell %q has empty counters: %+v", c.Key(), m)
		}
		if m.SlotsPerSec <= 0 {
			return fmt.Errorf("perf: cell %q has no throughput measurement", c.Key())
		}
		if m.PeakInFlight <= 0 {
			return fmt.Errorf("perf: cell %q recorded no in-flight bookkeeping", c.Key())
		}
	}
	for _, key := range GateKeys(scale) {
		if gate := byKey[key]; gate.AllocsPerSlot > GateAllocsPerSlot {
			return fmt.Errorf("perf: allocation gate failed: %q at %.4f allocs/slot (max %.4f) — the steady-state per-slot path regressed",
				gate.Key, gate.AllocsPerSlot, GateAllocsPerSlot)
		}
	}
	return nil
}

// FloorHeadroom is the slack CheckFloors grants below a committed
// cell's host-normalized slots/sec: a measurement may run half as fast
// as the ratcheted baseline before it counts as a regression.  The
// slack is deliberately wide — quick-scale cells finish in
// milliseconds, and single cells swing ±30% run to run from scheduling
// and GC timing alone (host speed differences are removed separately;
// see CheckFloors).  The ratchet exists to catch engine collapses — an
// accidentally quadratic path, a lost fast path — not few-percent
// drift, which the committed artifact's diff history tracks instead.
const FloorHeadroom = 0.5

// TightFloorHeadroom is the narrower slack applied to the cells the
// engine's hot path was explicitly optimized for (see tightFloorCell):
// those cells are the performance contract of the arena/kernel/coast
// work, so they are held closer to the committed baseline than the
// grid at large.
const TightFloorHeadroom = 0.6

// tightFloorCell reports whether a cell key belongs to the tightened
// ratchet: the dba/coded cells (the paper's protocol on the paper's
// channel) are the tentpole hot path, gated at TightFloorHeadroom and
// never exempted by FloorMinSeconds.
func tightFloorCell(key string) bool {
	return strings.HasPrefix(key, "dba/coded/")
}

// FloorMinSeconds exempts tiny cells from the ratchet: a committed
// cell's implied wall clock (Slots / SlotsPerSec) must be at least
// this long before its throughput is floor-gated.  Below it a whole
// cell finishes in milliseconds, where one scheduler preemption or GC
// pause halves the measured slots/sec — such cells are still recorded
// (and structurally checked) for trajectory, but wall-clock floors on
// them would only gate noise.  Simulated-slot count is deliberately
// not the criterion: a 150k-slot steady cell on the allocation-free
// classical path still finishes in ~8 ms.  At full scale every cell
// clears the threshold.
const FloorMinSeconds = 0.05

// CheckFloors gates a fresh artifact against a committed one: every
// cell present in both must reach FloorHeadroom × the committed
// slots/sec after host-speed normalization.  Normalization divides all
// floors by the median of the per-cell measured/committed throughput
// ratios — a slower (or faster) machine shifts every cell's ratio
// together, so the median tracks host speed while a genuine regression
// moves its cells against the median and still trips the gate.  Cells
// only one artifact has (a grid that grew or shrank across commits) and
// cells under FloorMinSeconds in the committed artifact are skipped: the
// structural match is Check's job, not the ratchet's.
func CheckFloors(measured, committed *Artifact) error {
	if measured == nil || committed == nil {
		return fmt.Errorf("perf: nil artifact")
	}
	base := make(map[string]*Measurement, len(committed.Cells))
	for i := range committed.Cells {
		base[committed.Cells[i].Key] = &committed.Cells[i]
	}
	type pair struct {
		m, b  *Measurement
		ratio float64
	}
	var shared []pair
	for i := range measured.Cells {
		m := &measured.Cells[i]
		b := base[m.Key]
		if b == nil || b.SlotsPerSec <= 0 || m.SlotsPerSec <= 0 {
			continue
		}
		if !tightFloorCell(m.Key) && float64(b.Slots)/b.SlotsPerSec < FloorMinSeconds {
			continue
		}
		shared = append(shared, pair{m: m, b: b, ratio: m.SlotsPerSec / b.SlotsPerSec})
	}
	if len(shared) == 0 {
		return fmt.Errorf("perf: no cells shared with the committed baseline — wrong scale or stale artifact?")
	}
	ratios := make([]float64, len(shared))
	for i, p := range shared {
		ratios[i] = p.ratio
	}
	sort.Float64s(ratios)
	hostSpeed := ratios[len(ratios)/2]
	for _, p := range shared {
		headroom := FloorHeadroom
		if tightFloorCell(p.m.Key) {
			headroom = TightFloorHeadroom
		}
		floor := p.b.SlotsPerSec * hostSpeed * headroom
		if p.m.SlotsPerSec < floor {
			return fmt.Errorf("perf: slots/sec floor failed: %q at %.0f, floor %.0f — measured/floor = %.2f (committed %.0f × host speed %.2f × headroom %.2f) — this cell regressed against the rest of the grid",
				p.m.Key, p.m.SlotsPerSec, floor, p.m.SlotsPerSec/floor, p.b.SlotsPerSec, hostSpeed, headroom)
		}
	}
	return nil
}

// Compare renders a markdown table of per-cell deltas between two
// artifacts (typically the committed BENCH_engine.json and a fresh
// run): slots/sec with the percentage change, and allocs/slot side by
// side.  Cells present in only one artifact render with a dash.  The
// numbers are host-dependent — the table is a review aid, not a gate.
func Compare(old, new *Artifact) string {
	keys := make([]string, 0, len(old.Cells)+len(new.Cells))
	oldBy := make(map[string]*Measurement, len(old.Cells))
	newBy := make(map[string]*Measurement, len(new.Cells))
	for i := range old.Cells {
		m := &old.Cells[i]
		oldBy[m.Key] = m
		keys = append(keys, m.Key)
	}
	for i := range new.Cells {
		m := &new.Cells[i]
		newBy[m.Key] = m
		if oldBy[m.Key] == nil {
			keys = append(keys, m.Key)
		}
	}
	var b strings.Builder
	b.WriteString("| cell | old slots/sec | new slots/sec | Δ | old allocs/slot | new allocs/slot |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, k := range keys {
		o, n := oldBy[k], newBy[k]
		fmt.Fprintf(&b, "| %s |", k)
		switch {
		case o == nil:
			fmt.Fprintf(&b, " — | %.0f | new | — | %.4f |\n", n.SlotsPerSec, n.AllocsPerSlot)
		case n == nil:
			fmt.Fprintf(&b, " %.0f | — | removed | %.4f | — |\n", o.SlotsPerSec, o.AllocsPerSlot)
		default:
			delta := "—"
			if o.SlotsPerSec > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(n.SlotsPerSec/o.SlotsPerSec-1))
			}
			fmt.Fprintf(&b, " %.0f | %.0f | %s | %.4f | %.4f |\n",
				o.SlotsPerSec, n.SlotsPerSec, delta, o.AllocsPerSlot, n.AllocsPerSlot)
		}
	}
	return b.String()
}
