// Package sweep runs declarative scenario grids: a Spec names the
// cross-product of channel models × protocols × arrival processes ×
// decoding thresholds × rates × jammers × adversaries it wants explored,
// and Run executes every cell's trials in parallel, aggregating per-cell
// summaries into a Grid that serializes to deterministic JSON and CSV.
// Same spec + same seed ⇒ byte-identical artifacts, regardless of
// parallelism — sweep outputs are diffable across commits, including
// cells with adaptive (feedback-reacting) adversaries.
//
// The model axis makes cross-channel comparisons one artifact: the same
// grid can run Decodable Backoff on the coded channel next to
// BEB/ALOHA/MW on the classical collision channel (with selectable
// collision-detection feedback), which is exactly the comparison the
// paper's headline throughput claim is about.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/medium"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Spec declares a scenario grid.  Every combination of one channel
// model, one protocol, one arrival kind, one κ, one rate, one jammer,
// and one adversary is a cell; each cell runs Trials independent
// trials.  The rate axis has a uniform "offered load" meaning across
// arrival kinds: it is the per-slot probability (bernoulli), intensity
// (poisson), pace (even), window-fill fraction (burst: rate×BurstWindow
// packets per window), or horizon-fill fraction (batch: rate×Horizon
// packets at slot 0, unless BatchN overrides).
//
// A combination the scenario builder refuses as a pairing is skipped
// during expansion rather than rejected, so one grid can mix channel
// models and adversaries freely (see internal/scenario: dba only on the
// coded model, the no-CD protocols only on classical:none, one noise
// source per cell, no adaptive adversary over a silence-masking model).
// The sweep shapes the κ axis itself: classical models collapse it to
// the single value 1 (the collision channel has no threshold to sweep),
// and the capture model skips κ = 1 (it collapses to the classical
// collision channel there, which the classical axis already covers).
// Every other cell must pass the builder's Check, or Validate refuses
// the spec.
type Spec struct {
	// Name labels the sweep in artifacts (optional).
	Name string `json:"name,omitempty"`

	// Models are channel-model descriptors without embedded parameters
	// (medium.Models).  Empty means {"coded"}; "classical" is shorthand
	// for "classical:ternary".
	Models []string `json:"models,omitempty"`
	// Protocols are registered protocol names (protocol.Names).
	Protocols []string `json:"protocols"`
	// Arrivals are arrival kinds: batch, bernoulli, poisson, even, burst.
	Arrivals []string `json:"arrivals"`
	// Kappas are the decoding thresholds (≥ 1; ≥ a swept protocol's
	// minimum, 6 for dba, wherever its cells exist).
	Kappas []int `json:"kappas"`
	// Rates are the offered loads, each in (0, ∞).
	Rates []float64 `json:"rates"`
	// Jammers are jammer descriptors (scenario.ParseJammer): "none",
	// "random:RATE", or "periodic:PERIOD/BURST", oblivious jammers of
	// the adversary layer on their own seed stream.  Empty means
	// {"none"}.
	Jammers []string `json:"jammers,omitempty"`
	// Adversaries are adversary descriptors (internal/adversary):
	// "none", "random:RATE", "burst:B/GAP", "reactive:TRIGGER/BURST", or
	// "sigmarho:SIGMA/RHO".  Empty means {"none"}.
	Adversaries []string `json:"adversaries,omitempty"`

	// Trials is the number of independent trials per cell (≥ 1).
	Trials int `json:"trials"`
	// Horizon is the arrival horizon in slots (≥ 1).
	Horizon int64 `json:"horizon"`
	// NoDrain stops each run at the horizon instead of draining.
	NoDrain bool `json:"no_drain,omitempty"`
	// DrainLimit bounds the drain phase (0 = engine default).
	DrainLimit int64 `json:"drain_limit,omitempty"`
	// MaxWindow caps the decoding window (0 = engine default 4κ).
	MaxWindow int `json:"max_window,omitempty"`
	// LatencySamples bounds the per-trial latency sample backing the
	// quantile columns: 0 keeps the engine default (a
	// sim.DefaultLatencySamples-slot seeded reservoir), a positive value
	// sets that capacity, and -1 disables retention (quantile columns go
	// to zero).  Per-trial memory is O(LatencySamples) instead of the
	// former O(arrivals); at default quick scales the reservoir holds
	// every delivery, so quantiles stay exact.
	LatencySamples int `json:"latency_samples,omitempty"`
	// Seed drives all randomness; cell and trial seeds derive from it.
	Seed uint64 `json:"seed"`

	// BatchN overrides the batch arrival size (0 = rate×Horizon).
	BatchN int `json:"batch_n,omitempty"`
	// BurstWindow is the burst arrival window length (0 = 16384).
	BurstWindow int64 `json:"burst_window,omitempty"`
	// AlohaP is the static ALOHA transmission probability (0 = 0.001).
	AlohaP float64 `json:"aloha_p,omitempty"`
}

// Scenario is one concrete cell of the expanded grid.
type Scenario struct {
	Model     string  `json:"model"`
	Protocol  string  `json:"protocol"`
	Arrival   string  `json:"arrival"`
	Kappa     int     `json:"kappa"`
	Rate      float64 `json:"rate"`
	Jammer    string  `json:"jammer"`
	Adversary string  `json:"adversary"`
}

// Key renders the cell coordinates compactly for tables and logs.
func (s Scenario) Key() string {
	return fmt.Sprintf("%s/%s/%s/k=%d/rate=%g/jam=%s/adv=%s",
		s.Model, s.Protocol, s.Arrival, s.Kappa, s.Rate, s.Jammer, s.Adversary)
}

// isClassical reports whether the model descriptor names a classical
// collision-channel variant.
func isClassical(model string) bool { return strings.HasPrefix(model, "classical") }

// Validate checks the spec and normalizes defaults (empty Models
// becomes {"coded"}, empty Jammers and Adversaries {"none"}).  It checks
// the axes itself and every cell Expand keeps through the scenario
// builder, and returns the first problem found.
func (s *Spec) Validate() error {
	if len(s.Models) == 0 {
		s.Models = []string{"coded"}
	}
	if len(s.Jammers) == 0 {
		s.Jammers = []string{"none"}
	}
	if len(s.Adversaries) == 0 {
		s.Adversaries = []string{"none"}
	}
	for _, m := range s.Models {
		if ms, err := medium.ParseSpec(m); err == nil && (ms.Kappa != 0 || ms.MaxWindow != 0) {
			// κ is a sweep axis and the window cap a spec field; a
			// parametrized descriptor would smuggle either into the model
			// coordinate and silently fork cell identities.
			return fmt.Errorf("sweep: model %q embeds parameters; use the kappas axis and max_window field instead", m)
		}
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("sweep: no protocols")
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("sweep: no arrivals")
	}
	if len(s.Kappas) == 0 {
		return fmt.Errorf("sweep: no kappas")
	}
	for _, k := range s.Kappas {
		if k < 1 {
			return fmt.Errorf("sweep: kappa %d < 1", k)
		}
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("sweep: no rates")
	}
	for _, r := range s.Rates {
		if !(r > 0) { // NaN too: a rate=NaN key could never be parsed back
			return fmt.Errorf("sweep: rate %g is not positive", r)
		}
	}
	// Every name parses in every cell that holds it, and a cell the
	// builder refuses for anything but a pairing is kept, so past this
	// point every value on every axis parses.
	cells, refused, invalid := s.expand()
	if invalid != nil {
		return invalid
	}
	// Two spellings of one value (0.5 and 0.50, classical and
	// classical:ternary, random:0.2 and random:0.20) would run one
	// scenario twice, and for rates and κ mint two cells with one key
	// that no reader joining cells by key could tell apart.
	for _, err := range []error{
		distinct("models", s.Models, func(m string) any { ms, _ := medium.ParseSpec(m); return ms }),
		distinct("protocols", s.Protocols, nil),
		distinct("arrivals", s.Arrivals, nil),
		distinct("kappas", s.Kappas, nil),
		distinct("rates", s.Rates, nil),
		distinct("jammers", s.Jammers, func(j string) any { jm, _ := scenario.ParseJammer(j); return jm }),
		distinct("adversaries", s.Adversaries, func(a string) any { adv, _ := adversary.Parse(a); return adv }),
	} {
		if err != nil {
			return err
		}
	}
	// An empty entry parses as the axis default, but the κ shaping and
	// cell keys see the raw string: it would fork cells.  An omitted
	// axis still defaults above.
	for _, ax := range []struct {
		name string
		vals []string
	}{{"models", s.Models}, {"arrivals", s.Arrivals}, {"jammers", s.Jammers}, {"adversaries", s.Adversaries}} {
		if slices.Contains(ax.vals, "") {
			return fmt.Errorf("sweep: empty entry on the %s axis (name the value, or omit the axis for its default)", ax.name)
		}
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials %d < 1", s.Trials)
	}
	if len(cells) == 0 {
		if refused != nil {
			return fmt.Errorf("sweep: the skip rules leave no cells; the first one skipped: %w", refused)
		}
		return fmt.Errorf("sweep: the skip rules leave no cells (capture skips κ = 1)")
	}
	return nil
}

// distinct rejects an axis that names one value twice.  parse maps an
// already validated value to what it means (nil: the value itself), so
// two spellings of one value count as a repeat.
func distinct[T any](axis string, vals []T, parse func(T) any) error {
	meant := make([]any, len(vals))
	for j, v := range vals {
		meant[j] = v
		if parse != nil {
			meant[j] = parse(v)
		}
		for i := range j {
			if reflect.DeepEqual(meant[i], meant[j]) {
				first, again := fmt.Sprint(vals[i]), fmt.Sprint(v)
				if first != again {
					again = first + " (as " + again + ")"
				}
				return fmt.Errorf("sweep: %s axis repeats %s", axis, again)
			}
		}
	}
	return nil
}

// Cells returns the number of cells the spec expands to.
func (s *Spec) Cells() int { return len(s.Expand()) }

// classicalKappas is the collapsed κ axis for classical models: the
// collision channel decodes one transmission per slot, threshold 1.
var classicalKappas = []int{1}

// Expand enumerates the grid's cells in canonical nesting order (model,
// then protocol, then arrival, then κ, then rate, then jammer, then
// adversary).  The order is part of the artifact contract: cell seeds
// are assigned along it.  It skips every combination the scenario
// builder refuses as a pairing, collapses a classical model's κ axis to
// {1}, and drops κ = 1 under the capture model (where it collapses to
// the classical collision channel).
func (s *Spec) Expand() []Scenario {
	cells, _, _ := s.expand()
	return cells
}

// expand is Expand, also returning the first combination the builder
// refused as a pairing and the first kept cell it refuses outright.
func (s *Spec) expand() (cells []Scenario, refused, invalid error) {
	axis := func(vals []string, def string) []string {
		if len(vals) == 0 {
			return []string{def}
		}
		return vals
	}
	jammers, advs := axis(s.Jammers, "none"), axis(s.Adversaries, "none")
	for _, m := range axis(s.Models, "coded") {
		kappas := s.Kappas
		if isClassical(m) {
			kappas = classicalKappas
		} else if m == "capture" {
			kappas = slices.DeleteFunc(slices.Clone(kappas), func(k int) bool { return k < 2 })
		}
		for _, p := range s.Protocols {
			for _, a := range s.Arrivals {
				for _, k := range kappas {
					for _, r := range s.Rates {
						for _, j := range jammers {
							for _, adv := range advs {
								sc := Scenario{Model: m, Protocol: p, Arrival: a, Kappa: k, Rate: r, Jammer: j, Adversary: adv}
								err := s.desc(sc).Check()
								if errors.Is(err, scenario.ErrPairing) {
									if refused == nil {
										refused = err
									}
									continue
								}
								if err != nil && invalid == nil {
									invalid = fmt.Errorf("sweep: cell %s: %w", sc.Key(), err)
								}
								cells = append(cells, sc)
							}
						}
					}
				}
			}
		}
	}
	return cells, refused, invalid
}

// desc is the scenario builder's descriptor of one cell.
func (s *Spec) desc(sc Scenario) scenario.Desc {
	return scenario.Desc{
		Model:          sc.Model,
		Protocol:       sc.Protocol,
		Arrival:        sc.Arrival,
		Jammer:         sc.Jammer,
		Adversary:      sc.Adversary,
		Kappa:          sc.Kappa,
		MaxWindow:      s.MaxWindow,
		Rate:           sc.Rate,
		BatchN:         s.BatchN,
		BurstWindow:    s.BurstWindow,
		AlohaP:         s.AlohaP,
		Horizon:        s.Horizon,
		Drain:          !s.NoDrain,
		DrainLimit:     s.DrainLimit,
		LatencySamples: s.LatencySamples,
		// No cell summary reads the backlog series.
		SeriesCap: sim.SeriesOff,
	}
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// hand-written spec files fail loudly.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
