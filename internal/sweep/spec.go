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
	"fmt"
	"reflect"
	"strings"

	"repro/internal/adversary"
	"repro/internal/medium"
	"repro/internal/protocol"
)

// Model, protocol, and arrival kinds a Spec may name.
var (
	// Models lists the known channel-model descriptors in canonical
	// order (see internal/medium).
	Models = medium.Models
	// Protocols lists the known protocol kinds in canonical order,
	// straight from the protocol registry (exec.go links every
	// implementing package, so the axis is complete by the time this
	// package initializes).
	Protocols = protocol.Names()
	// Arrivals lists the known arrival kinds in canonical order.
	Arrivals = []string{"batch", "bernoulli", "poisson", "even", "burst"}
	// Adversaries lists the adversary descriptor forms a Spec may name
	// (see internal/adversary).
	Adversaries = adversary.Kinds
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
// Six combinations are skipped during expansion rather than rejected,
// so one grid can mix channel models and adversaries freely: dba pairs
// only with the coded model (the algorithm is defined for κ ≥ 6); the
// no-CD protocols (robust, unbounded) pair only with classical:none
// (their schedules assume no channel sensing — pairing them with richer
// feedback would sweep cells whose extra information they ignore);
// classical models collapse the κ axis to the single value 1 (the
// collision channel has no threshold to sweep); the capture model skips
// κ = 1 (it collapses to the classical collision channel there, which
// the classical axis already covers); jamming and adaptive adversaries
// pair only with jammer "none" (double-jamming cells would only square
// the grid, and an adaptive adversary cannot sit over a jammed,
// silence-spoiling medium); and adaptive adversaries are skipped under
// silence-masking models (classical:none has no channel sensing, so the
// reactive trigger — and the determinism contract's gap-equals-silence
// rule — is undefined there).
type Spec struct {
	// Name labels the sweep in artifacts (optional).
	Name string `json:"name,omitempty"`

	// Models ⊆ {coded, classical, classical:none, classical:binary,
	// classical:ternary, capture}.  Empty means {"coded"}; "classical"
	// is shorthand for "classical:ternary".
	Models []string `json:"models,omitempty"`
	// Protocols ⊆ {dba, beb, aloha, genie, mw, robust, unbounded}.
	Protocols []string `json:"protocols"`
	// Arrivals ⊆ {batch, bernoulli, poisson, even, burst}.
	Arrivals []string `json:"arrivals"`
	// Kappas are the decoding thresholds (≥ 1; ≥ 6 if dba is swept).
	Kappas []int `json:"kappas"`
	// Rates are the offered loads, each in (0, ∞).
	Rates []float64 `json:"rates"`
	// Jammers are jammer descriptors: "none", "random:RATE", or
	// "periodic:PERIOD/BURST".  Empty means {"none"}.
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

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// isClassical reports whether the model descriptor names a classical
// collision-channel variant.
func isClassical(model string) bool { return strings.HasPrefix(model, "classical") }

// Validate checks the spec and normalizes defaults (empty Models
// becomes {"coded"}, empty Jammers becomes {"none"}).  It returns the
// first problem found.
func (s *Spec) Validate() error {
	if len(s.Models) == 0 {
		s.Models = []string{"coded"}
	}
	hasCoded := false
	for _, m := range s.Models {
		ms, err := medium.ParseSpec(m)
		if err != nil {
			return fmt.Errorf("sweep: unknown model %q (want one of %s)",
				m, strings.Join(Models, ", "))
		}
		if ms.Kappa != 0 || ms.MaxWindow != 0 {
			// κ is a sweep axis and the window cap a spec field; a
			// parametrized descriptor would smuggle either into the model
			// coordinate and silently fork cell identities.
			return fmt.Errorf("sweep: model %q embeds parameters; use the kappas axis and max_window field instead", m)
		}
		// The capture model shares the coded channel's κ-ary decoding
		// power but not its cross-slot windows; a coded-only protocol's
		// minimum κ (dba's κ ≥ 6) and the dba pairing rule below are
		// about coded specifically.
		hasCoded = hasCoded || m == "coded"
	}
	if len(s.Protocols) == 0 {
		return fmt.Errorf("sweep: no protocols")
	}
	for _, p := range s.Protocols {
		if !contains(Protocols, p) {
			return fmt.Errorf("sweep: unknown protocol %q (want one of %s)",
				p, strings.Join(Protocols, ", "))
		}
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("sweep: no arrivals")
	}
	for _, a := range s.Arrivals {
		if !contains(Arrivals, a) {
			return fmt.Errorf("sweep: unknown arrival %q (want one of %s)",
				a, strings.Join(Arrivals, ", "))
		}
	}
	if len(s.Kappas) == 0 {
		return fmt.Errorf("sweep: no kappas")
	}
	for _, k := range s.Kappas {
		if k < 1 {
			return fmt.Errorf("sweep: kappa %d < 1", k)
		}
		for _, p := range s.Protocols {
			info, _ := protocol.Lookup(p)
			if k < info.MinKappa && (hasCoded || !info.CodedOnly) {
				return fmt.Errorf("sweep: kappa %d < %d but %s is swept (the analysis needs κ ≥ %d)",
					k, info.MinKappa, p, info.MinKappa)
			}
		}
	}
	if !hasCoded && len(s.Protocols) == 1 && s.Protocols[0] == "dba" {
		return fmt.Errorf("sweep: dba pairs only with the coded model, but no coded model is swept")
	}
	allNoCD := true
	for _, p := range s.Protocols {
		info, _ := protocol.Lookup(p)
		allNoCD = allNoCD && info.NoCDOnly
	}
	if allNoCD && !contains(s.Models, "classical:none") {
		return fmt.Errorf("sweep: no-CD protocols (%s) pair only with the classical:none model, but it is not swept",
			strings.Join(s.Protocols, ", "))
	}
	if len(s.Rates) == 0 {
		return fmt.Errorf("sweep: no rates")
	}
	for _, r := range s.Rates {
		if !(r > 0) { // NaN too: a rate=NaN key could never be parsed back
			return fmt.Errorf("sweep: rate %g is not positive", r)
		}
	}
	if len(s.Jammers) == 0 {
		s.Jammers = []string{"none"}
	}
	for _, j := range s.Jammers {
		if _, err := parseJammer(j); err != nil {
			return err
		}
	}
	if len(s.Adversaries) == 0 {
		s.Adversaries = []string{"none"}
	}
	for _, a := range s.Adversaries {
		if _, err := adversary.Parse(a); err != nil {
			return err
		}
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
		distinct("jammers", s.Jammers, func(j string) any { jm, _ := parseJammer(j); return jm }),
		distinct("adversaries", s.Adversaries, func(a string) any { adv, _ := adversary.Parse(a); return adv }),
	} {
		if err != nil {
			return err
		}
	}
	// An empty entry parses as the axis default, but the skip rules and
	// cell keys see the raw string: it would drop or fork cells.  An
	// omitted axis still defaults above.
	for _, ax := range []struct {
		name string
		vals []string
	}{{"models", s.Models}, {"jammers", s.Jammers}, {"adversaries", s.Adversaries}} {
		if contains(ax.vals, "") {
			return fmt.Errorf("sweep: empty entry on the %s axis (name the value, or omit the axis for its default)", ax.name)
		}
	}
	if s.Trials < 1 {
		return fmt.Errorf("sweep: trials %d < 1", s.Trials)
	}
	if s.Horizon < 1 {
		return fmt.Errorf("sweep: horizon %d < 1", s.Horizon)
	}
	if s.DrainLimit < 0 {
		return fmt.Errorf("sweep: drain limit %d < 0", s.DrainLimit)
	}
	if s.MaxWindow < 0 {
		return fmt.Errorf("sweep: max window %d < 0", s.MaxWindow)
	}
	if s.LatencySamples < -1 {
		return fmt.Errorf("sweep: latency samples %d < -1 (0 = engine default, -1 = off)", s.LatencySamples)
	}
	if s.BatchN < 0 {
		return fmt.Errorf("sweep: batch n %d < 0", s.BatchN)
	}
	if s.BurstWindow < 0 {
		return fmt.Errorf("sweep: burst window %d < 0", s.BurstWindow)
	}
	if s.AlohaP < 0 || s.AlohaP > 1 {
		return fmt.Errorf("sweep: aloha p %g outside [0,1]", s.AlohaP)
	}
	if len(s.Expand()) == 0 {
		return fmt.Errorf("sweep: the skip rules leave no cells (every protocol/model/κ combination named is skipped)")
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
// are assigned along it.  Six skip rules keep mixed grids runnable:
// dba cells exist only under the coded model; no-CD protocols exist
// only under classical:none; classical models collapse the κ axis to
// {1}; the capture model skips κ = 1 (where it collapses to classical);
// jamming and adaptive adversaries pair only with jammer "none"; and
// adaptive adversaries are skipped under silence-masking models (the
// feedback they react to does not exist there).
func (s *Spec) Expand() []Scenario {
	models := s.Models
	if len(models) == 0 {
		models = []string{"coded"}
	}
	jammers := s.Jammers
	if len(jammers) == 0 {
		jammers = []string{"none"}
	}
	advs := s.Adversaries
	if len(advs) == 0 {
		advs = []string{"none"}
	}
	// Classify each adversary descriptor once; the skip rules consult
	// the flags in the innermost loop.
	advJams := make([]bool, len(advs))
	advAdaptive := make([]bool, len(advs))
	for i, a := range advs {
		advJams[i] = adversary.IsJammer(a)
		advAdaptive[i] = adversary.IsAdaptive(a)
	}
	var cells []Scenario
	for _, m := range models {
		kappas := s.Kappas
		if isClassical(m) {
			kappas = classicalKappas
		} else if m == "capture" {
			// Capture at κ = 1 is the classical collision channel, which
			// the classical axis already covers; sweep only the κ where
			// capture is its own model.
			filtered := make([]int, 0, len(kappas))
			for _, k := range kappas {
				if k >= 2 {
					filtered = append(filtered, k)
				}
			}
			kappas = filtered
		}
		// Adaptive adversaries need truthful silence feedback; ask the
		// model itself rather than hard-coding descriptor names.
		masksSilence := false
		if built, err := medium.New(m, 1, 0); err == nil {
			masksSilence = medium.MasksSilence(built)
		}
		for _, p := range s.Protocols {
			info, _ := protocol.Lookup(p)
			if info.CodedOnly && m != "coded" {
				continue // dba is defined for the coded channel (κ ≥ 6)
			}
			if info.NoCDOnly && m != "classical:none" {
				continue // no-CD schedules assume no channel sensing
			}
			for _, a := range s.Arrivals {
				for _, k := range kappas {
					for _, r := range s.Rates {
						for _, j := range jammers {
							for ai, adv := range advs {
								if (advJams[ai] || advAdaptive[ai]) && j != "none" {
									// One noise source per cell; and an
									// adaptive adversary cannot sit over a
									// jammed (silence-spoiling) medium.
									continue
								}
								if advAdaptive[ai] && masksSilence {
									continue // no silence feedback to react to
								}
								cells = append(cells, Scenario{
									Model: m, Protocol: p, Arrival: a, Kappa: k, Rate: r,
									Jammer: j, Adversary: adv,
								})
							}
						}
					}
				}
			}
		}
	}
	return cells
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
