package nocd

import "repro/internal/protocol"

// Registry entries for the no-CD schemes.  These schedules assume
// stations hear nothing but their own delivery, so NoCDOnly makes the
// scenario builder pair them only with the classical:none model: every
// command refuses them elsewhere and the sweep skips those cells.  Only
// E16 builds them directly, to put the unbounded scheme on the capture
// channel deliberately.
func init() {
	protocol.Register(protocol.Info{
		Name:     "robust",
		Summary:  "robust sawtooth no-CD scheme, every density recurs each phase (Jiang–Zheng)",
		NoCDOnly: true,
		Build: func(p protocol.Params) protocol.Protocol {
			return NewRobust(p.Rand)
		},
	})
	protocol.Register(protocol.Info{
		Name:     "unbounded",
		Summary:  "unknown-n geometric back-on no-CD scheme (Fernández Anta–Mosteiro–Muñoz)",
		NoCDOnly: true,
		Build: func(p protocol.Params) protocol.Protocol {
			return NewUnbounded(p.Rand)
		},
	})
}
