package protocol

import (
	"fmt"

	"repro/internal/rng"
)

// Params carries everything a registered protocol constructor may need.
// Builders ignore the fields that do not apply to them (only dba reads
// Kappa and EpochObserver; only aloha reads AlohaP).
type Params struct {
	// Kappa is the channel's decoding threshold.
	Kappa int
	// Rand is the protocol's private random stream (never shared with
	// the channel or the arrival process).
	Rand *rng.Rand
	// AlohaP is the static transmission probability for slotted ALOHA.
	AlohaP float64
	// EpochObserver, if non-nil, receives per-epoch callbacks from
	// epoch-structured protocols (Decodable Backoff).
	EpochObserver EpochObserver
}

// Info describes one registered protocol kind: its axis name, a
// one-line summary (pinned against DESIGN.md §10 by the doc-drift
// test), the media it pairs with, and its constructor.
type Info struct {
	// Name is the protocol's axis name ("dba", "beb", ...), the key
	// sweeps and CLIs select it by.
	Name string
	// Summary is a one-line description for tables and docs.
	Summary string
	// CodedOnly marks protocols defined only for the coded channel
	// (Decodable Backoff needs κ-threshold decoding feedback).
	CodedOnly bool
	// NoCDOnly marks protocols designed for the no-collision-detection
	// regime: sweeps pair them only with the classical:none model, where
	// the only feedback is a station's own delivery.
	NoCDOnly bool
	// MinKappa is the smallest decoding threshold the protocol is
	// defined for (0: any).  Decodable Backoff's analysis needs κ ≥ 6.
	MinKappa int
	// Build returns an instance for p.  Protocols are stateful, so every
	// run needs its own: with a nil reuse Build constructs one, and
	// given reuse — an instance this entry built whose run has returned
	// — it may instead re-initialise reuse in place, keeping its buffers,
	// and return it.  Either way the instance behaves exactly as a fresh
	// one built for p.
	Build func(p Params, reuse Protocol) Protocol
}

// canonicalNames fixes the registry's axis order.  The order is part of
// the artifact contract — sweep expansion (and therefore cell seed
// assignment) follows it — so new protocols append; nothing reorders.
var canonicalNames = []string{"dba", "beb", "aloha", "genie", "mw", "robust", "unbounded"}

var registry = map[string]Info{}

// Register records a protocol kind under its Info.Name.  Implementing
// packages call it from init; the name must appear in the canonical
// axis order and must not already be taken.
func Register(info Info) {
	if info.Name == "" || info.Build == nil {
		panic("protocol: Register needs a name and a builder")
	}
	if !contains(canonicalNames, info.Name) {
		panic(fmt.Sprintf("protocol: %q is not in the canonical axis order; add it to canonicalNames first", info.Name))
	}
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("protocol: %q registered twice", info.Name))
	}
	registry[info.Name] = info
}

// Names returns the registered protocol names in canonical axis order.
// With all implementing packages linked in (anything importing
// internal/sweep or the crn facade does), this is the full axis.
func Names() []string {
	names := make([]string, 0, len(registry))
	for _, n := range canonicalNames {
		if _, ok := registry[n]; ok {
			names = append(names, n)
		}
	}
	return names
}

// Registered returns the Info of every registered protocol in canonical
// axis order.
func Registered() []Info {
	// Register rejects names outside the canonical order, so walking
	// that order is exhaustive.
	infos := make([]Info, 0, len(registry))
	for _, n := range canonicalNames {
		if info, ok := registry[n]; ok {
			infos = append(infos, info)
		}
	}
	return infos
}

// Lookup returns the Info registered under name.
func Lookup(name string) (Info, bool) {
	info, ok := registry[name]
	return info, ok
}

// Build constructs a fresh instance of the named protocol, panicking on
// unknown names (callers validate names against Names() first).
func Build(name string, p Params) Protocol { return Rebuild(name, p, nil) }

// Rebuild is Build that may re-initialise reuse in place (see
// Info.Build): reuse must be nil or an instance built under the same
// name whose run has returned.
func Rebuild(name string, p Params, reuse Protocol) Protocol {
	info, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("protocol: unknown protocol %q", name))
	}
	return info.Build(p, reuse)
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}
