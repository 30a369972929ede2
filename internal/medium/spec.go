package medium

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec is the parsed form of a channel-model descriptor — the one
// canonical currency every layer (CLIs, sweep expansion, the emulator,
// the facade) resolves media through.  The grammar:
//
//	coded[:K[/W]]                    the paper's κ-threshold channel;
//	                                 K overrides the decoding threshold,
//	                                 W the decoding-window cap
//	classical[:none|binary|ternary]  the collision channel (default
//	                                 ternary, the strongest feedback)
//	capture[:K]                      the high-SNR capture channel
//
// Zero-valued Kappa and MaxWindow mean "from context": Build fills them
// from its arguments, so a bare "coded" behaves exactly like the
// pre-Spec constructors that took kappa/maxWindow parameters alongside
// the descriptor.  ParseSpec(s.String()) == s for every Spec ParseSpec
// returns, and String always emits the canonical spelling (e.g. a bare
// "classical" parses to, and prints as, "classical:ternary").
type Spec struct {
	// Model is the channel family: "coded", "classical", or "capture".
	Model string
	// CD is the collision-detection feedback mode; classical only.
	CD CD
	// Kappa is the embedded decoding threshold; 0 = take it from the
	// Build call's context.  Coded and capture only.
	Kappa int
	// MaxWindow is the embedded decoding-window cap; 0 = take it from
	// the Build call's context.  Coded only.
	MaxWindow int
}

// ParseSpec parses a channel-model descriptor.  The empty descriptor
// parses as the coded channel, matching New's historical default.
func ParseSpec(desc string) (Spec, error) {
	model, arg, hasArg := strings.Cut(desc, ":")
	if model == "" && !hasArg {
		model = "coded"
	}
	switch model {
	case "coded":
		s := Spec{Model: "coded"}
		if !hasArg {
			return s, nil
		}
		kStr, wStr, hasW := strings.Cut(arg, "/")
		k, err := strconv.Atoi(kStr)
		if err != nil || k < 1 {
			return Spec{}, fmt.Errorf("medium: bad descriptor %q: kappa must be a positive integer", desc)
		}
		s.Kappa = k
		if hasW {
			w, err := strconv.Atoi(wStr)
			if err != nil || w < 1 {
				return Spec{}, fmt.Errorf("medium: bad descriptor %q: window cap must be a positive integer", desc)
			}
			s.MaxWindow = w
		}
		return s, nil
	case "classical":
		s := Spec{Model: "classical", CD: CDTernary}
		if !hasArg {
			return s, nil
		}
		cd, err := ParseCD(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("medium: bad descriptor %q: %v", desc, err)
		}
		s.CD = cd
		return s, nil
	case "capture":
		s := Spec{Model: "capture"}
		if !hasArg {
			return s, nil
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k < 1 {
			return Spec{}, fmt.Errorf("medium: bad descriptor %q: kappa must be a positive integer", desc)
		}
		s.Kappa = k
		return s, nil
	}
	return Spec{}, fmt.Errorf("medium: unknown channel model %q (want coded[:K[/W]], classical[:none|binary|ternary], or capture[:K])", desc)
}

// String returns the canonical descriptor; ParseSpec round-trips it.
func (s Spec) String() string {
	switch s.Model {
	case "coded":
		switch {
		case s.Kappa == 0:
			return "coded"
		case s.MaxWindow == 0:
			return "coded:" + strconv.Itoa(s.Kappa)
		default:
			return "coded:" + strconv.Itoa(s.Kappa) + "/" + strconv.Itoa(s.MaxWindow)
		}
	case "classical":
		return "classical:" + s.CD.String()
	case "capture":
		if s.Kappa == 0 {
			return "capture"
		}
		return "capture:" + strconv.Itoa(s.Kappa)
	}
	return fmt.Sprintf("Spec(%q)", s.Model)
}

// MasksSilence reports whether the media the spec builds mask silence
// (see the function MasksSilence) without building one: only the
// classical channel without collision detection does.
func (s Spec) MasksSilence() bool { return s.Model == "classical" && s.CD == CDNone }

// Build constructs the medium the spec describes.  kappa and maxWindow
// supply the context defaults for fields the descriptor left embedded
// at zero; an embedded value always wins.  Classical media ignore both
// (κ = 1 semantics, no decoding windows).
func (s Spec) Build(kappa, maxWindow int) (Medium, error) {
	return s.Rebuild(nil, kappa, maxWindow)
}

// Rebuild is Build that re-initialises reuse in place, keeping its
// storage, when reuse is a medium of the model the spec describes (at
// any κ, window cap or feedback mode), and allocates otherwise.  reuse
// must be nil or a medium no run is using any more; whatever Rebuild
// returns is exactly what Build would have built.
func (s Spec) Rebuild(reuse Medium, kappa, maxWindow int) (Medium, error) {
	switch s.Model {
	case "coded":
		k, w := s.Kappa, s.MaxWindow
		if k == 0 {
			k = kappa
		}
		if w == 0 {
			w = maxWindow
		}
		if k < 1 {
			return nil, fmt.Errorf("medium: coded channel needs kappa ≥ 1 (got %d)", k)
		}
		if w < 0 {
			return nil, fmt.Errorf("medium: coded channel needs window cap ≥ 0 (got %d)", w)
		}
		if c, ok := reuse.(*Coded); ok {
			c.ResetTo(k, w)
			return c, nil
		}
		return NewCoded(k, w), nil
	case "classical":
		if s.CD > CDTernary {
			return nil, fmt.Errorf("medium: invalid collision-detection mode %d", s.CD)
		}
		if c, ok := reuse.(*Classical); ok {
			c.ResetTo(s.CD)
			return c, nil
		}
		return NewClassical(s.CD), nil
	case "capture":
		k := s.Kappa
		if k == 0 {
			k = kappa
		}
		if k < 1 {
			return nil, fmt.Errorf("medium: capture channel needs kappa ≥ 1 (got %d)", k)
		}
		if c, ok := reuse.(*Capture); ok {
			c.ResetTo(k)
			return c, nil
		}
		return NewCapture(k), nil
	}
	return nil, fmt.Errorf("medium: unknown channel model %q (want coded, classical, or capture)", s.Model)
}
