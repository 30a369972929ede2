package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func smallSpec() Spec {
	return Spec{
		Name:      "test",
		Protocols: []string{"dba", "genie"},
		Arrivals:  []string{"batch", "bernoulli"},
		Kappas:    []int{8, 16},
		Rates:     []float64{0.3, 0.6},
		Trials:    2,
		Horizon:   500,
		Seed:      42,
	}
}

func TestExpandOrderAndCount(t *testing.T) {
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	if len(cells) != s.Cells() || len(cells) != 16 {
		t.Fatalf("expanded %d cells, Cells()=%d, want 16", len(cells), s.Cells())
	}
	// Canonical nesting: model outermost, adversary innermost.
	if cells[0].Key() != "coded/dba/batch/k=8/rate=0.3/jam=none/adv=none" {
		t.Fatalf("first cell %q", cells[0].Key())
	}
	if cells[1].Rate != 0.6 || cells[2].Kappa != 16 {
		t.Fatalf("nesting order wrong: %v %v", cells[1], cells[2])
	}
	if cells[15].Key() != "coded/genie/bernoulli/k=16/rate=0.6/jam=none/adv=none" {
		t.Fatalf("last cell %q", cells[15].Key())
	}
}

func TestExpandMixedModels(t *testing.T) {
	// dba pairs only with coded, and classical models collapse κ to 1.
	s := smallSpec()
	s.Models = []string{"coded", "classical:none"}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	// coded: 2 protocols × 2 arrivals × 2 κ × 2 rates = 16;
	// classical: genie only × 2 arrivals × 1 κ × 2 rates = 4.
	if len(cells) != 20 {
		t.Fatalf("expanded %d cells, want 20", len(cells))
	}
	for _, c := range cells {
		if c.Model == "classical:none" {
			if c.Protocol == "dba" {
				t.Fatalf("dba expanded on classical: %s", c.Key())
			}
			if c.Kappa != 1 {
				t.Fatalf("classical cell with κ=%d: %s", c.Kappa, c.Key())
			}
		}
	}
	if cells[16].Key() != "classical:none/genie/batch/k=1/rate=0.3/jam=none/adv=none" {
		t.Fatalf("first classical cell %q", cells[16].Key())
	}
}

func TestValidateNormalizesModels(t *testing.T) {
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Models) != 1 || s.Models[0] != "coded" {
		t.Fatalf("models not normalized: %v", s.Models)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"bad model": func(s *Spec) { s.Models = []string{"quantum"} },
		"dba classical only": func(s *Spec) {
			s.Protocols = []string{"dba"}
			s.Models = []string{"classical"}
		},
		"no protocols":    func(s *Spec) { s.Protocols = nil },
		"bad protocol":    func(s *Spec) { s.Protocols = []string{"tdma"} },
		"no arrivals":     func(s *Spec) { s.Arrivals = nil },
		"bad arrival":     func(s *Spec) { s.Arrivals = []string{"fractal"} },
		"no kappas":       func(s *Spec) { s.Kappas = nil },
		"kappa zero":      func(s *Spec) { s.Kappas = []int{0} },
		"dba small kappa": func(s *Spec) { s.Kappas = []int{4} },
		"no rates":        func(s *Spec) { s.Rates = nil },
		"rate zero":       func(s *Spec) { s.Rates = []float64{0} },
		"rate NaN":        func(s *Spec) { s.Rates = []float64{math.NaN()} },
		"bad jammer":      func(s *Spec) { s.Jammers = []string{"emp"} },
		"bad random":      func(s *Spec) { s.Jammers = []string{"random:2"} },
		"bad periodic":    func(s *Spec) { s.Jammers = []string{"periodic:10"} },
		"no trials":       func(s *Spec) { s.Trials = 0 },
		"no horizon":      func(s *Spec) { s.Horizon = 0 },
		"neg drain limit": func(s *Spec) { s.DrainLimit = -1 },
		"neg max window":  func(s *Spec) { s.MaxWindow = -1 },
		"neg batch n":     func(s *Spec) { s.BatchN = -1 },
		"neg burst win":   func(s *Spec) { s.BurstWindow = -1 },
		"aloha p > 1":     func(s *Spec) { s.AlohaP = 1.5 },
		"aloha p < 0":     func(s *Spec) { s.AlohaP = -0.1 },
		// A value named twice on one axis, in any spelling, would mint
		// two cells with one key (or one scenario under two keys).
		"repeated model":     func(s *Spec) { s.Models = []string{"coded", "classical", "classical:ternary"} },
		"repeated protocol":  func(s *Spec) { s.Protocols = []string{"genie", "genie"} },
		"repeated arrival":   func(s *Spec) { s.Arrivals = []string{"batch", "batch"} },
		"repeated kappa":     func(s *Spec) { s.Kappas = []int{8, 16, 8} },
		"repeated rate":      func(s *Spec) { s.Rates = []float64{0.5, 0.50} },
		"repeated jammer":    func(s *Spec) { s.Jammers = []string{"random:0.2", "random:0.20"} },
		"repeated adversary": func(s *Spec) { s.Adversaries = []string{"none", "burst:2/3", "burst:2/03"} },
		"repeated none":      func(s *Spec) { s.Adversaries = []string{"none", ""} },
		// An empty entry parses as the default, but the skip rules see
		// "": dba's cell would be dropped, or jam= keys minted.
		"empty model":     func(s *Spec) { s.Models = []string{""} },
		"empty jammer":    func(s *Spec) { s.Jammers = []string{""}; s.Adversaries = []string{"none", "reactive:4/48"} },
		"empty adversary": func(s *Spec) { s.Adversaries = []string{""} },
	}
	for name, mutate := range cases {
		s := smallSpec()
		mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		} else if strings.HasPrefix(name, "repeated") && !strings.Contains(err.Error(), "repeats") {
			t.Errorf("%s: refused for another reason: %v", name, err)
		}
	}
	// The refusal names the axis and the value, compared after parsing.
	for spec, want := range map[string][]string{
		`{"protocols":["genie","genie"],"arrivals":["batch"],"kappas":[4],"rates":[0.5],"trials":1,"horizon":200}`: {"protocols", "genie"},
		`{"protocols":["genie"],"arrivals":["batch"],"kappas":[4],"rates":[0.5,0.50],"trials":1,"horizon":200}`:    {"rates", "0.5"},
		emptyModelSpec: {"empty entry", "models"},
		`{"protocols":["genie"],"arrivals":["batch"],"kappas":[8],"rates":[0.5],"jammers":[""],"adversaries":["none","reactive:4/48"],"trials":1,"horizon":200}`: {"empty entry", "jammers"},
	} {
		_, err := ParseSpec([]byte(spec))
		for _, w := range want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want it to name %q", spec, err, w)
			}
		}
	}
}

// emptyModelSpec names the empty model, which parses as coded: before
// Validate refused it, genie's cell ran keyed with an empty model and
// dba's was dropped.
const emptyModelSpec = `{"models":[""],"protocols":["genie","dba"],"arrivals":["batch"],"kappas":[8],"rates":[0.5],"trials":1,"horizon":200}`

// FuzzParseSpec: ParseSpec never panics, an accepted spec expands to
// pairwise-distinct cell keys, and the normalized spec survives a JSON
// round trip unchanged.
func FuzzParseSpec(f *testing.F) {
	bench, err := os.ReadFile("../../bench_spec.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bench)
	f.Add([]byte(`{"protocols":["genie"],"arrivals":["batch"],"kappas":[4],"rates":[0.5,0.50],"trials":1,"horizon":200}`))
	f.Add([]byte(emptyModelSpec))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // keeps an accepted grid small
		}
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		keys := make(map[string]bool)
		for _, sc := range spec.Expand() {
			if keys[sc.Key()] {
				t.Fatalf("two cells share the key %s", sc.Key())
			}
			keys[sc.Key()] = true
		}
		norm, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(norm)
		if err != nil {
			t.Fatalf("normalized spec %s does not parse: %v", norm, err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, back)
		}
	})
}

func TestValidateNormalizesJammers(t *testing.T) {
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Jammers) != 1 || s.Jammers[0] != "none" {
		t.Fatalf("jammers not normalized: %v", s.Jammers)
	}
}

func TestRunSmallGrid(t *testing.T) {
	grid, err := Run(context.Background(), smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 16 {
		t.Fatalf("%d cells", len(grid.Cells))
	}
	var progressed int
	for _, c := range grid.Cells {
		if c.Trials != 2 {
			t.Fatalf("%s: %d trials", c.Key(), c.Trials)
		}
		if c.Arrivals == 0 {
			t.Fatalf("%s: no arrivals", c.Key())
		}
		if c.Arrivals != c.Delivered+c.Pending {
			t.Fatalf("%s: conservation violated: %d != %d + %d",
				c.Key(), c.Arrivals, c.Delivered, c.Pending)
		}
		if c.Delivered > 0 {
			progressed++
			if c.Throughput.Mean <= 0 || c.LatencyP50.Mean < 1 {
				t.Fatalf("%s: degenerate metrics: %+v", c.Key(), c)
			}
		}
		if c.Slots.Silent+c.Slots.Good+c.Slots.Bad == 0 {
			t.Fatalf("%s: empty slot mix", c.Key())
		}
	}
	if progressed == 0 {
		t.Fatal("no cell delivered anything")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	// Same spec + seed must produce byte-identical JSON, at any
	// parallelism — the artifact-diffability contract.
	render := func(par int) []byte {
		grid, err := Run(context.Background(), smallSpec(), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		data, err := grid.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(serial, render(par)) {
			t.Fatalf("parallelism %d changed the artifact", par)
		}
	}
	if !bytes.Equal(serial, render(1)) {
		t.Fatal("rerun with the same seed diverged")
	}
}

func TestRunMixedModelGrid(t *testing.T) {
	// One spec mixing coded and classical cells — the cross-model
	// comparison the medium layer exists for — must run every cell and
	// stay byte-stable across parallelism.
	s := Spec{
		Name:      "mixed",
		Models:    []string{"coded", "classical:ternary", "classical:none"},
		Protocols: []string{"dba", "beb", "genie"},
		Arrivals:  []string{"bernoulli"},
		Kappas:    []int{8},
		Rates:     []float64{0.3},
		Trials:    2,
		Horizon:   800,
		Seed:      11,
	}
	grid, err := Run(context.Background(), s, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// coded: 3 protocols; each classical model: beb+genie.
	if len(grid.Cells) != 7 {
		t.Fatalf("%d cells, want 7", len(grid.Cells))
	}
	for _, c := range grid.Cells {
		if c.Arrivals == 0 || c.Delivered == 0 {
			t.Fatalf("%s: nothing happened (arrivals=%d delivered=%d)",
				c.Key(), c.Arrivals, c.Delivered)
		}
		if c.Arrivals != c.Delivered+c.Pending {
			t.Fatalf("%s: conservation violated", c.Key())
		}
	}
	a, _ := grid.JSON()
	par, err := Run(context.Background(), s, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := par.JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("mixed-model artifact not byte-stable across parallelism")
	}
	// The classical collision channel is capped well below the coded
	// channel's throughput at the same offered load; genie ALOHA caps
	// near 1/e there, so its coded-channel (κ=8) run must beat its
	// classical run on delivered slots per packet... assert the weaker,
	// robust property: both variants delivered, and the artifact keys
	// distinguish them.
	keys := make(map[string]bool)
	for _, c := range grid.Cells {
		keys[c.Key()] = true
	}
	if !keys["coded/genie/bernoulli/k=8/rate=0.3/jam=none/adv=none"] ||
		!keys["classical:ternary/genie/bernoulli/k=1/rate=0.3/jam=none/adv=none"] {
		t.Fatalf("expected cross-model keys missing: %v", keys)
	}
}

func TestRunSeedMatters(t *testing.T) {
	a, err := Run(context.Background(), smallSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := smallSpec()
	s.Seed = 43
	b, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if bytes.Equal(aj, bj) {
		t.Fatal("different seeds produced identical artifacts")
	}
}

func TestRunJammedCell(t *testing.T) {
	s := Spec{
		Protocols: []string{"genie"},
		Arrivals:  []string{"bernoulli"},
		Kappas:    []int{4},
		Rates:     []float64{0.2},
		Jammers:   []string{"none", "random:0.3", "periodic:100/10"},
		Trials:    2,
		Horizon:   2000,
		Seed:      7,
	}
	grid, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Cells[0].Slots.Jammed != 0 {
		t.Fatal("unjammed cell recorded jammed slots")
	}
	for _, i := range []int{1, 2} {
		if grid.Cells[i].Slots.Jammed == 0 {
			t.Fatalf("cell %s never jammed", grid.Cells[i].Key())
		}
	}
}

func TestErrorEpochsCounted(t *testing.T) {
	// Overloading dba at twice its stable rate forces some error epochs;
	// non-epoch protocols must report zero.
	s := Spec{
		Protocols: []string{"dba", "beb"},
		Arrivals:  []string{"bernoulli"},
		Kappas:    []int{8},
		Rates:     []float64{0.9},
		Trials:    2,
		Horizon:   5000,
		NoDrain:   true,
		Seed:      9,
	}
	grid, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if grid.Cells[0].Protocol != "dba" || grid.Cells[0].ErrorEpochs == 0 {
		t.Fatalf("dba overload shows no error epochs: %+v", grid.Cells[0])
	}
	if grid.Cells[1].ErrorEpochs != 0 {
		t.Fatalf("beb reported error epochs: %+v", grid.Cells[1])
	}
}

func TestOnCellProgress(t *testing.T) {
	var calls []int
	_, err := Run(context.Background(), Spec{
		Protocols: []string{"genie"}, Arrivals: []string{"batch"},
		Kappas: []int{2, 4}, Rates: []float64{0.5},
		Trials: 1, Horizon: 100, Seed: 1,
	}, Options{OnCell: func(done, total int, cell *CellSummary, cached bool) {
		if cached {
			t.Fatal("no cache configured, but a cell reported cached")
		}
		if total != 2 || cell == nil {
			t.Fatalf("bad progress call: %d/%d %v", done, total, cell)
		}
		calls = append(calls, done)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 1 || calls[1] != 2 {
		t.Fatalf("progress calls %v", calls)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := smallSpec()
	s.Jammers = []string{"random:0.1"}
	s.MaxWindow = 32
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || back.MaxWindow != 32 || back.Jammers[0] != "random:0.1" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"protocols":["dba"],"arrivalz":["batch"]}`))
	if err == nil || !strings.Contains(err.Error(), "arrivalz") {
		t.Fatalf("typo not rejected: %v", err)
	}
}

// The retired staged-engine knob is rejected by name at decode, whatever
// its value, rather than ignored.
func TestValidateRejectsNegativeWorkers(t *testing.T) {
	for _, workers := range []string{"-1", "0", "2"} {
		spec := `{"protocols":["dba"],"arrivals":["batch"],"kappas":[8],"rates":[0.5],"trials":1,"horizon":10,"workers":` + workers + `}`
		_, err := ParseSpec([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("workers=%s not rejected by name: %v", workers, err)
		}
	}
}

func TestGridTableAndCSV(t *testing.T) {
	grid, err := Run(context.Background(), Spec{
		Protocols: []string{"genie"}, Arrivals: []string{"batch"},
		Kappas: []int{4}, Rates: []float64{0.5},
		Trials: 1, Horizon: 100, Seed: 1,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := grid.Table().String()
	if !strings.Contains(tab, "genie") || !strings.Contains(tab, "throughput") {
		t.Fatalf("table missing content:\n%s", tab)
	}
	csv := grid.CSV()
	if lines := strings.Count(csv, "\n"); lines != 2 { // header + 1 cell
		t.Fatalf("CSV has %d lines:\n%s", lines, csv)
	}
}

func TestExpandAdversaryAxisAndSkipRules(t *testing.T) {
	s := Spec{
		Models:      []string{"coded", "classical:none"},
		Protocols:   []string{"genie"},
		Arrivals:    []string{"bernoulli"},
		Kappas:      []int{8},
		Rates:       []float64{0.3},
		Jammers:     []string{"none", "random:0.1"},
		Adversaries: []string{"none", "reactive:4/32", "sigmarho:100/0.05"},
		Trials:      1,
		Horizon:     100,
		Seed:        1,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := s.Expand()
	// coded: jammer none × {none, reactive, sigmarho} + jammer random ×
	// {none, sigmarho} (reactive is a jamming adversary: skipped under a
	// non-none jammer) = 5; classical:none additionally skips reactive
	// (no silence feedback) = 4.
	if len(cells) != 9 {
		for _, c := range cells {
			t.Log(c.Key())
		}
		t.Fatalf("expanded %d cells, want 9", len(cells))
	}
	for _, c := range cells {
		if c.Adversary == "reactive:4/32" && c.Jammer != "none" {
			t.Fatalf("jamming adversary expanded under jammer %q: %s", c.Jammer, c.Key())
		}
		if c.Adversary == "reactive:4/32" && c.Model == "classical:none" {
			t.Fatalf("adaptive adversary expanded under classical:none: %s", c.Key())
		}
	}
	// The injector composes with any jammer and any model.
	want := "coded/genie/bernoulli/k=8/rate=0.3/jam=random:0.1/adv=sigmarho:100/0.05"
	var found bool
	for _, c := range cells {
		found = found || c.Key() == want
	}
	if !found {
		t.Fatalf("expected cell %q in expansion", want)
	}
}

func TestValidateRejectsBadAdversaries(t *testing.T) {
	for _, bad := range []string{"emp", "reactive:0/5", "sigmarho:0/0", "random:7"} {
		s := smallSpec()
		s.Adversaries = []string{bad}
		if err := s.Validate(); err == nil {
			t.Errorf("adversary %q accepted", bad)
		}
	}
	s := smallSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Adversaries) != 1 || s.Adversaries[0] != "none" {
		t.Fatalf("adversaries not normalized: %v", s.Adversaries)
	}
}

func adversarialSpec() Spec {
	return Spec{
		Name:        "adversarial",
		Protocols:   []string{"dba", "genie"},
		Arrivals:    []string{"bernoulli"},
		Kappas:      []int{8},
		Rates:       []float64{0.5},
		Adversaries: []string{"none", "reactive:4/32", "burst:50/450", "sigmarho:50/0.1"},
		Trials:      2,
		Horizon:     2000,
		Seed:        17,
	}
}

func TestAdversaryGridDeterministicAcrossParallelism(t *testing.T) {
	// The acceptance bar for the adversary layer: sweep artifacts whose
	// cells contain adaptive jammers must stay byte-identical between
	// serial and parallel execution (adaptive state is per-trial, jam
	// randomness slot-keyed, cell seeds order-derived).
	render := func(par int) []byte {
		grid, err := Run(context.Background(), adversarialSpec(), Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		data, err := grid.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(serial, render(par)) {
			t.Fatalf("parallelism %d changed an adversarial artifact", par)
		}
	}
	if !bytes.Equal(serial, render(1)) {
		t.Fatal("rerun with the same seed diverged")
	}
}

func TestAdversaryCellsBehave(t *testing.T) {
	grid, err := Run(context.Background(), adversarialSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*CellSummary{}
	for i := range grid.Cells {
		byKey[grid.Cells[i].Key()] = &grid.Cells[i]
	}
	clean := byKey["coded/dba/bernoulli/k=8/rate=0.5/jam=none/adv=none"]
	reactive := byKey["coded/dba/bernoulli/k=8/rate=0.5/jam=none/adv=reactive:4/32"]
	burst := byKey["coded/dba/bernoulli/k=8/rate=0.5/jam=none/adv=burst:50/450"]
	sigmarho := byKey["coded/dba/bernoulli/k=8/rate=0.5/jam=none/adv=sigmarho:50/0.1"]
	if clean == nil || reactive == nil || burst == nil || sigmarho == nil {
		t.Fatalf("expected cells missing; have %d cells", len(grid.Cells))
	}
	if clean.Slots.Jammed != 0 {
		t.Fatal("clean cell recorded jammed slots")
	}
	for name, c := range map[string]*CellSummary{"reactive": reactive, "burst": burst} {
		if c.Slots.Jammed == 0 {
			t.Fatalf("%s adversary never jammed", name)
		}
		if c.Arrivals != c.Delivered+c.Pending {
			t.Fatalf("%s: conservation violated", name)
		}
	}
	// The injector adds its (σ,ρ) load on top of the bernoulli stream.
	if sigmarho.Arrivals <= clean.Arrivals {
		t.Fatalf("sigmarho cell arrivals %d not above clean %d",
			sigmarho.Arrivals, clean.Arrivals)
	}
}

func TestLatencySamplesValidation(t *testing.T) {
	s := smallSpec()
	s.LatencySamples = -2
	if err := s.Validate(); err == nil {
		t.Fatal("latency samples -2 accepted")
	}
	for _, ok := range []int{-1, 0, 64} {
		s := smallSpec()
		s.LatencySamples = ok
		if err := s.Validate(); err != nil {
			t.Fatalf("latency samples %d rejected: %v", ok, err)
		}
	}
}

func TestLatencySamplesOffDisablesQuantiles(t *testing.T) {
	s := smallSpec()
	s.LatencySamples = -1
	grid, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range grid.Cells {
		if c.LatencyP50.Mean != 0 || c.LatencyP99.Mean != 0 {
			t.Fatalf("%s: quantile columns filled with retention off: %+v", c.Key(), c)
		}
	}
}

func TestReservoirQuantilesDeterministicAcrossParallelism(t *testing.T) {
	// A capacity far below per-cell deliveries forces true reservoir
	// subsampling; the sampled quantile columns must still be
	// byte-identical at any parallelism (the reservoir stream is seeded
	// per trial, not per worker).
	spec := smallSpec()
	spec.Horizon = 2000
	spec.LatencySamples = 16
	render := func(par int) []byte {
		grid, err := Run(context.Background(), spec, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range grid.Cells {
			if c.Delivered > 16*int64(c.Trials) && c.LatencyP50.Mean == 0 {
				t.Fatalf("%s: subsampled quantiles missing", c.Key())
			}
		}
		data, err := grid.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := render(1)
	for _, par := range []int{2, 8} {
		if !bytes.Equal(serial, render(par)) {
			t.Fatalf("parallelism %d changed reservoir-sampled quantiles", par)
		}
	}
}

func TestParseJammerRejectsNaN(t *testing.T) {
	s := smallSpec()
	s.Jammers = []string{"random:NaN"}
	if err := s.Validate(); err == nil {
		t.Fatal("NaN jammer rate accepted")
	}
}
