package core

import "repro/internal/protocol"

// Decodable Backoff's registry entry.  The builder honors
// Params.EpochObserver so the sweep executor's error-epoch counter
// (Definition 2) keeps working through the registry path.
func init() {
	protocol.Register(protocol.Info{
		Name:      "dba",
		Summary:   "Decodable Backoff, the paper's algorithm for the coded channel (κ ≥ 6)",
		CodedOnly: true,
		MinKappa:  6,
		Build: func(p protocol.Params) protocol.Protocol {
			var opts []Option
			if p.EpochObserver != nil {
				opts = append(opts, WithEpochObserver(p.EpochObserver))
			}
			return New(p.Kappa, p.Rand, opts...)
		},
	})
}
