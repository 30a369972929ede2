package sim

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/arrival"
	"repro/internal/baseline"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/rng"
)

// plainMedium hides a medium's optional Repeater capability, forcing
// the engine onto the full-Step path for every slot.  Runs through it
// are the executable definition of what the coast fast-forward must
// reproduce.
type plainMedium struct {
	inner medium.Medium
}

func (p *plainMedium) Name() string { return p.inner.Name() }
func (p *plainMedium) Kappa() int   { return p.inner.Kappa() }
func (p *plainMedium) AddSilent(n int64) {
	p.inner.AddSilent(n)
}
func (p *plainMedium) Step(now int64, txs []channel.PacketID) (channel.SlotClass, *channel.Event) {
	return p.inner.Step(now, txs)
}
func (p *plainMedium) Feedback(fb *channel.Feedback) { p.inner.Feedback(fb) }
func (p *plainMedium) Stats() channel.Stats          { return p.inner.Stats() }
func (p *plainMedium) Reset()                        { p.inner.Reset() }

// TestCoastMatchesFullStep pins the coast fast-forward (Coaster ×
// Repeater) against the full-step path: every scenario must produce
// byte-identical Results whether the medium advertises Repeater or has
// it hidden.  Scenarios are
// chosen to spend most of their slots in overfull DBA epochs — exactly
// the regime the coast optimizes — with and without a jammer spoiling
// slots mid-coast (the Jammed.StepRepeat fallback).
func TestCoastMatchesFullStep(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  Config
		run  func(cfg Config) *Result
	}{
		{"dba/overfull-batch", Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 31},
			func(cfg Config) *Result {
				return Run(cfg, core.New(8, rng.New(301)), &arrival.Batch{At: 0, N: 4000})
			}},
		{"dba/bernoulli", Config{Kappa: 16, Horizon: 20000, Drain: true, Seed: 32},
			func(cfg Config) *Result {
				return Run(cfg, core.New(16, rng.New(302)), &arrival.Bernoulli{Rate: 0.4})
			}},
		{"dba/overfull+random-jam", Config{Kappa: 8, Horizon: 1, Drain: true, Seed: 33,
			Adversary: adversary.NewRandom(0.3)},
			func(cfg Config) *Result {
				return Run(cfg, core.New(8, rng.New(303)), &arrival.Batch{At: 0, N: 2000})
			}},
		{"dba/bernoulli+periodic-jam", Config{Kappa: 16, Horizon: 15000, Drain: true, Seed: 34,
			Adversary: adversary.NewBurstGap(12, 36)},
			func(cfg Config) *Result {
				return Run(cfg, core.New(16, rng.New(304)), &arrival.Bernoulli{Rate: 0.3})
			}},
		{"beb/no-coaster", Config{Kappa: 8, Horizon: 4096, Drain: true, Seed: 35},
			func(cfg Config) *Result {
				return Run(cfg, baseline.NewExponentialBackoff(rng.New(305)), &arrival.Batch{At: 0, N: 64})
			}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			fast := sc.run(sc.cfg)
			plainCfg := sc.cfg
			plainCfg.Medium = &plainMedium{inner: medium.NewCoded(sc.cfg.Kappa, plainCfg.Window())}
			plain := sc.run(plainCfg)
			if resultDigest(fast) != resultDigest(plain) {
				t.Errorf("coast path diverged from full-step reference\nfast:  %v\nplain: %v", fast, plain)
			}
		})
	}
}
