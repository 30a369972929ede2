package core

import "repro/internal/protocol"

// Decodable Backoff's registry entry.  The builder honors
// Params.EpochObserver so the sweep executor's error-epoch counter
// (Definition 2) keeps working through the registry path, and resets a
// reused instance for the new κ.
func init() {
	protocol.Register(protocol.Info{
		Name:      "dba",
		Summary:   "Decodable Backoff, the paper's algorithm for the coded channel (κ ≥ 6)",
		CodedOnly: true,
		MinKappa:  6,
		Build: func(p protocol.Params, reuse protocol.Protocol) protocol.Protocol {
			d, ok := reuse.(*DecodableBackoff)
			if !ok {
				d = new(DecodableBackoff)
			}
			d.Reset(p.Kappa, p.Rand, WithEpochObserver(p.EpochObserver))
			return d
		},
	})
}
