package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/jam"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite "+digestTable+" from the current code")

// digestTable pins the full Result of every digestCells run.
const digestTable = "testdata/result_digests.txt"

// resultDigest is the SHA-256 of a Result's JSON together with the
// latency state encoding/json cannot see (the Summary moments and the
// reservoir sample), so equal digests mean equal Results.
func resultDigest(r *Result) string {
	var sample []float64
	if r.LatencySample != nil {
		sample = r.LatencySample.Values()
	}
	b, err := json.Marshal(struct {
		Result                          *Result
		LatN                            int64
		LatMean, LatVar, LatMin, LatMax float64
		Sample                          []float64
	}{r, r.Latency.N(), r.Latency.Mean(), r.Latency.Variance(), r.Latency.Min(), r.Latency.Max(), sample})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestCell is one pinned run: a table key and the run it names,
// executed by the given run function (Run, or a Runner's Run).
type digestCell struct {
	key string
	run func(run func(Config, protocol.Protocol, arrival.Process) *Result) *Result
}

// digestArrivals are the sweep layer's arrival kinds at offered load
// 0.2 over a 1500-slot horizon (a batch of 300, a burst of 50 per
// 250-slot window).
var digestArrivals = []struct {
	name  string
	build func() arrival.Process
}{
	{"batch", func() arrival.Process { return &arrival.Batch{At: 0, N: 300} }},
	{"bernoulli", func() arrival.Process { return &arrival.Bernoulli{Rate: 0.2} }},
	{"poisson", func() arrival.Process { return &arrival.Poisson{Lambda: 0.2} }},
	{"even", func() arrival.Process { return arrival.NewEvenPaced(0.2) }},
	{"burst", func() arrival.Process { return &arrival.WindowBurst{Window: 250, PerWindow: 50} }},
}

// digestDisruptions are every adversary kind and both legacy
// Config.Jammer forms.
var digestDisruptions = []struct {
	name  string
	apply func(cfg *Config)
}{
	{"adv=random:0.1", func(cfg *Config) { cfg.Adversary = mustAdversary("random:0.1") }},
	{"adv=burst:4/28", func(cfg *Config) { cfg.Adversary = mustAdversary("burst:4/28") }},
	{"adv=reactive:4/16", func(cfg *Config) { cfg.Adversary = mustAdversary("reactive:4/16") }},
	{"adv=sigmarho:40/0.05", func(cfg *Config) { cfg.Adversary = mustAdversary("sigmarho:40/0.05") }},
	{"jam=random:0.1", func(cfg *Config) { cfg.Jammer = &jam.Random{Rate: 0.1} }},
	{"jam=periodic:32/4", func(cfg *Config) { cfg.Jammer = &jam.Periodic{Period: 32, Burst: 4} }},
}

func mustAdversary(desc string) adversary.Adversary {
	a, err := adversary.Parse(desc)
	if err != nil {
		panic(err)
	}
	return a
}

// digestCells enumerates the pinned runs, two seeds each, under the
// sweep layer's skip rules (dba only on coded media, the no-CD schemes
// only on classical:none, adaptive adversaries never on a medium that
// masks silence):
//
//   - every registered protocol × every medium.Spec form × every
//     arrival kind, undisturbed;
//   - every registered protocol × every adversary kind and legacy
//     jammer, on coded, classical:ternary and classical:none, under
//     batch and Bernoulli arrivals.
//
// Bare "coded" takes the engine's default construction (Config.Medium
// nil, window cap 4κ); "coded:12" has an unbounded window.
func digestCells() []digestCell {
	var cells []digestCell
	add := func(media string, info protocol.Info, arr int, dis string, apply func(*Config)) {
		spec, err := medium.ParseSpec(media)
		if err != nil {
			panic(err)
		}
		if info.CodedOnly && spec.Model != "coded" {
			return
		}
		if info.NoCDOnly && (spec.Model != "classical" || spec.CD != medium.CDNone) {
			return
		}
		kappa := 8
		if spec.Model == "capture" {
			kappa = 4
		}
		var probe Config
		if apply != nil {
			apply(&probe)
		}
		if _, adaptive := probe.Adversary.(adversary.Adaptive); adaptive {
			if m, _ := spec.Build(kappa, 0); medium.MasksSilence(m) {
				return
			}
		}
		for seed := uint64(1); seed <= 2; seed++ {
			seed := seed
			cells = append(cells, digestCell{
				key: fmt.Sprintf("%s %s %s %s seed=%d", info.Name, media, digestArrivals[arr].name, dis, seed),
				run: func(run func(Config, protocol.Protocol, arrival.Process) *Result) *Result {
					cfg := Config{Horizon: 1500, Drain: true, DrainLimit: 6000, Seed: seed, LatencySamples: 128}
					if apply != nil {
						// Adversaries are stateful: a fresh instance per run.
						apply(&cfg)
					}
					k := kappa
					if media == "coded" {
						cfg.Kappa = k
					} else {
						m, err := spec.Build(k, 0)
						if err != nil {
							panic(err)
						}
						cfg.Medium = m
						k = m.Kappa()
					}
					proto := protocol.Build(info.Name, protocol.Params{
						Kappa: k, Rand: rng.New(seed ^ 0x70726f746f), AlohaP: 0.05,
					})
					return run(cfg, proto, digestArrivals[arr].build())
				},
			})
		}
	}
	media := []string{"coded", "coded:12", "coded:12/24", "classical:none", "classical:binary", "classical:ternary", "capture", "capture:3"}
	for _, info := range protocol.Registered() {
		for _, m := range media {
			for a := range digestArrivals {
				add(m, info, a, "none", nil)
			}
		}
	}
	for _, info := range protocol.Registered() {
		for _, m := range []string{"coded", "classical:ternary", "classical:none"} {
			for _, d := range digestDisruptions {
				for a := range digestArrivals[:2] {
					add(m, info, a, d.name, d.apply)
				}
			}
		}
	}
	return cells
}

// TestResultDigests recomputes the committed table of full-Result
// digests.  It is the byte-identity gate for any change below sim.Run:
// a moved digest names the protocol, medium, arrival, disruption and
// seed whose output changed.  Regenerate with
//
//	go test ./internal/sim -run TestResultDigests -update
//
// only for a change meant to move outputs, and say which entries moved
// and why.
func TestResultDigests(t *testing.T) {
	cells := digestCells()
	got := make([]string, len(cells))
	ForEach(len(cells), 0, func(i int) { got[i] = resultDigest(cells[i].run(Run)) })
	var b strings.Builder
	for i, c := range cells {
		fmt.Fprintf(&b, "%s %s\n", c.key, got[i])
	}
	if *update {
		if err := os.WriteFile(digestTable, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigestTable(t)
	moved := 0
	for i, c := range cells {
		w, ok := want[c.key]
		switch {
		case !ok:
			t.Errorf("%s: not in the table", c.key)
		case w != got[i]:
			moved++
			if moved <= 20 {
				t.Errorf("%s: digest %s, table %s", c.key, got[i], w)
			}
		}
		delete(want, c.key)
	}
	if moved > 0 {
		t.Errorf("%d of %d digests moved", moved, len(cells))
	}
	for k := range want {
		t.Errorf("%s: in the table but no longer run", k)
	}
}

// readDigestTable loads the committed digest table, keyed by cell key.
func readDigestTable(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestTable)
	if err != nil {
		t.Fatalf("%v (generate the table with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		cut := strings.LastIndexByte(line, ' ')
		want[line[:cut]] = line[cut+1:]
	}
	return want
}

// TestRunnerReplayMatchesDigests runs every digest cell through one
// shared Runner, in table order and then reversed, and requires the
// committed digest each time: the buffers a Runner carries from run to
// run (in-flight pages, reservoir storage, packet-ID and transmitter
// buffers) must leave no trace in the next Result.  Cells that deliver
// nothing check that an emptied reservoir reads like a fresh one.
func TestRunnerReplayMatchesDigests(t *testing.T) {
	want := readDigestTable(t)
	cells := digestCells()
	var r Runner
	moved := 0
	check := func(pass string, c digestCell) {
		if got := resultDigest(c.run(r.Run)); got != want[c.key] {
			moved++
			if moved <= 20 {
				t.Errorf("%s pass, %s: digest %s, table %s", pass, c.key, got, want[c.key])
			}
		}
	}
	for _, c := range cells {
		check("forward", c)
	}
	for i := len(cells) - 1; i >= 0; i-- {
		check("reverse", cells[i])
	}
	if moved > 0 {
		t.Errorf("%d of %d shared-Runner digests moved", moved, 2*len(cells))
	}
}
