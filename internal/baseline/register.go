package baseline

import "repro/internal/protocol"

// Registry entries for the classical baselines.  AlohaP defaulting
// lives with the callers (sweep, CLIs); builders take Params verbatim.
// A reused instance was built by the same entry, so beb's keeps its
// exponential schedule through Backoff.Reset.
func init() {
	protocol.Register(protocol.Info{
		Name:    "beb",
		Summary: "binary exponential backoff (Ethernet/802.11 style window doubling)",
		Build: func(p protocol.Params, reuse protocol.Protocol) protocol.Protocol {
			if e, ok := reuse.(*Backoff); ok {
				e.Reset(p.Rand)
				return e
			}
			return NewExponentialBackoff(p.Rand)
		},
	})
	protocol.Register(protocol.Info{
		Name:    "aloha",
		Summary: "slotted ALOHA with a static transmission probability",
		Build: func(p protocol.Params, reuse protocol.Protocol) protocol.Protocol {
			a, ok := reuse.(*SlottedAloha)
			if !ok {
				a = new(SlottedAloha)
			}
			a.ResetStatic(p.Rand, p.AlohaP)
			return a
		},
	})
	protocol.Register(protocol.Info{
		Name:    "genie",
		Summary: "genie-aided ALOHA transmitting at the backlog-optimal rate",
		Build: func(p protocol.Params, reuse protocol.Protocol) protocol.Protocol {
			a, ok := reuse.(*SlottedAloha)
			if !ok {
				a = new(SlottedAloha)
			}
			a.ResetGenie(p.Rand, 1)
			return a
		},
	})
	protocol.Register(protocol.Info{
		Name:    "mw",
		Summary: "multiplicative-weights probability adaptation from channel feedback",
		Build: func(p protocol.Params, reuse protocol.Protocol) protocol.Protocol {
			m, ok := reuse.(*MultiplicativeWeights)
			if !ok {
				m = new(MultiplicativeWeights)
			}
			m.Reset(p.Rand, DefaultMWConfig())
			return m
		},
	})
}
