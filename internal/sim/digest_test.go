package sim_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite "+digestTable+" from the current code")

// digestTable pins the full Result of every digestCells run.
const digestTable = "testdata/result_digests.txt"

// digestProtoSalt derives a digest cell's protocol seed from its seed.
const digestProtoSalt = 0x70726f746f

// digestCell is one pinned run: a table key and the scenario and seed
// it names.
type digestCell struct {
	key  string
	desc scenario.Desc
	seed uint64
}

// build builds the cell's run from fresh state.  A bare "coded" cell
// with no jammer leaves its medium to the engine (Config.Medium nil), so
// the table pins the engine's default construction as well as the
// builder's, which a scenario.Slot uses; a jammer lives in the medium
// the builder composed, so a jammed cell keeps it.
func (c *digestCell) build() scenario.Built {
	b, err := c.desc.Build(c.seed, c.seed^digestProtoSalt, nil)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", c.key, err))
	}
	if c.desc.Model == "coded" && c.desc.Jammer == "" {
		b.Config.Medium = nil
	}
	return b
}

// digestArrivals are the sweep layer's arrival kinds; at the cells'
// offered load 0.2 over a 1500-slot horizon, the batch is 300 packets
// and the burst 50 per 250-slot window.
var digestArrivals = []string{"batch", "bernoulli", "poisson", "even", "burst"}

// digestDisruptions are every adversary kind, both jammer descriptor
// forms, and a jammer beside an injector, where each one's seed salt
// shows.
var digestDisruptions = []struct {
	name  string
	apply func(d *scenario.Desc)
}{
	{"adv=random:0.1", func(d *scenario.Desc) { d.Adversary = "random:0.1" }},
	{"adv=burst:4/28", func(d *scenario.Desc) { d.Adversary = "burst:4/28" }},
	{"adv=reactive:4/16", func(d *scenario.Desc) { d.Adversary = "reactive:4/16" }},
	{"adv=sigmarho:40/0.05", func(d *scenario.Desc) { d.Adversary = "sigmarho:40/0.05" }},
	{"jam=random:0.1", func(d *scenario.Desc) { d.Jammer = "random:0.1" }},
	{"jam=periodic:32/4", func(d *scenario.Desc) { d.Jammer = "periodic:32/4" }},
	{"jam=random:0.1+adv=sigmarho:40/0.05", func(d *scenario.Desc) {
		d.Jammer, d.Adversary = "random:0.1", "sigmarho:40/0.05"
	}},
}

// digestCells enumerates the pinned runs, two seeds each, skipping
// what the scenario builder refuses as a pairing (dba only on coded
// media, the no-CD schemes only on classical:none, adaptive adversaries
// never on a medium that masks silence):
//
//   - every registered protocol × every medium.Spec form × every
//     arrival kind, undisturbed;
//   - every registered protocol × every adversary kind and jammer
//     descriptor, and a jammer beside an injecting adversary, on coded,
//     classical:ternary and classical:none, under batch and Bernoulli
//     arrivals.
//
// Bare "coded" has the engine's default window cap, 4κ; "coded:12" has
// none.  κ is 8, or 4 on the capture models.
func digestCells() []digestCell {
	var cells []digestCell
	add := func(media string, info protocol.Info, arr, dis string, apply func(*scenario.Desc)) {
		d := scenario.Desc{
			Model: media, Protocol: info.Name, Arrival: arr, Kappa: 8,
			Rate: 0.2, BurstWindow: 250, AlohaP: 0.05,
			Horizon: 1500, Drain: true, DrainLimit: 6000, LatencySamples: 128,
		}
		if strings.HasPrefix(media, "capture") {
			d.Kappa = 4
		}
		if apply != nil {
			apply(&d)
		}
		if err := d.Check(); errors.Is(err, scenario.ErrPairing) {
			return
		} else if err != nil {
			panic(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			cells = append(cells, digestCell{
				key:  fmt.Sprintf("%s %s %s %s seed=%d", info.Name, media, arr, dis, seed),
				desc: d,
				seed: seed,
			})
		}
	}
	media := []string{"coded", "coded:12", "coded:12/24", "classical:none", "classical:binary", "classical:ternary", "capture", "capture:3"}
	for _, info := range protocol.Registered() {
		for _, m := range media {
			for _, a := range digestArrivals {
				add(m, info, a, "none", nil)
			}
		}
	}
	for _, info := range protocol.Registered() {
		for _, m := range []string{"coded", "classical:ternary", "classical:none"} {
			for _, d := range digestDisruptions {
				for _, a := range digestArrivals[:2] {
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
	sim.ForEach(len(cells), 0, func(i int) {
		b := cells[i].build()
		got[i] = sim.ResultDigest(sim.Run(b.Config, b.Proto, b.Arrival))
	})
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

// TestRunnerReplayMatchesDigests replays every digest cell, in table
// order and then reversed, and requires the committed digest each time,
// twice over:
//
//   - "runner": fresh builds on one shared sim.Runner, so the buffers a
//     Runner carries from run to run (in-flight pages, reservoir
//     storage, packet-ID and transmitter buffers) must leave no trace in
//     the next Result;
//   - "slot": one scenario.Slot, which also carries each cell's
//     protocol and medium into the next cell that names the same
//     protocol and model kind and re-initialises them there, across κ
//     8, 12, 4 and 3, window caps 32, 24 and none, and every feedback
//     mode.
//
// Cells that deliver nothing check that an emptied reservoir reads like
// a fresh one.
func TestRunnerReplayMatchesDigests(t *testing.T) {
	want := readDigestTable(t)
	cells := digestCells()
	var r sim.Runner
	var s scenario.Slot
	for _, pass := range []struct {
		name string
		run  func(c *digestCell) *sim.Result
	}{
		{"runner", func(c *digestCell) *sim.Result {
			b := c.build()
			return r.Run(b.Config, b.Proto, b.Arrival)
		}},
		{"slot", func(c *digestCell) *sim.Result {
			res, err := s.Run(c.desc, c.seed, c.seed^digestProtoSalt, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			return res
		}},
	} {
		moved := 0
		check := func(order string, c *digestCell) {
			if got := sim.ResultDigest(pass.run(c)); got != want[c.key] {
				moved++
				if moved <= 20 {
					t.Errorf("%s %s pass, %s: digest %s, table %s", pass.name, order, c.key, got, want[c.key])
				}
			}
		}
		for i := range cells {
			check("forward", &cells[i])
		}
		for i := len(cells) - 1; i >= 0; i-- {
			check("reverse", &cells[i])
		}
		if moved > 0 {
			t.Errorf("%d of %d %s-replay digests moved", moved, 2*len(cells), pass.name)
		}
	}
}
