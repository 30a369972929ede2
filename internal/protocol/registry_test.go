package protocol_test

import (
	"reflect"
	"testing"

	"repro/internal/arrival"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"

	_ "repro/internal/baseline" // register beb, aloha, genie, mw
	_ "repro/internal/core"     // register dba
	_ "repro/internal/nocd"     // register robust, unbounded
)

// TestRegistryComplete pins the full canonical axis: with every
// implementing package linked, the registry holds all seven protocols
// in axis order — the order sweep expansion (and so cell seed
// assignment) depends on.
func TestRegistryComplete(t *testing.T) {
	want := []string{"dba", "beb", "aloha", "genie", "mw", "robust", "unbounded"}
	names := protocol.Names()
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	infos := protocol.Registered()
	if len(infos) != len(want) {
		t.Fatalf("Registered() returned %d infos, want %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i] {
			t.Errorf("Registered()[%d].Name = %q, want %q", i, info.Name, want[i])
		}
		if info.Summary == "" {
			t.Errorf("%s: empty summary", info.Name)
		}
		if info.CodedOnly && info.NoCDOnly {
			t.Errorf("%s: both CodedOnly and NoCDOnly", info.Name)
		}
	}
}

// TestRegistryPairingFlags pins the media-pairing flags the sweep skip
// rules consume.
func TestRegistryPairingFlags(t *testing.T) {
	for name, want := range map[string]struct{ coded, nocd bool }{
		"dba":       {true, false},
		"beb":       {false, false},
		"aloha":     {false, false},
		"genie":     {false, false},
		"mw":        {false, false},
		"robust":    {false, true},
		"unbounded": {false, true},
	} {
		info, ok := protocol.Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) missed", name)
			continue
		}
		if info.CodedOnly != want.coded || info.NoCDOnly != want.nocd {
			t.Errorf("%s: CodedOnly=%v NoCDOnly=%v, want %v %v",
				name, info.CodedOnly, info.NoCDOnly, want.coded, want.nocd)
		}
	}
	if _, ok := protocol.Lookup("tdma"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}

// TestRegistryBuild constructs one instance of every protocol through
// the registry and checks each self-identifies and starts empty.
func TestRegistryBuild(t *testing.T) {
	for _, info := range protocol.Registered() {
		p := protocol.Build(info.Name, protocol.Params{
			Kappa: 8, Rand: rng.New(1), AlohaP: 0.01,
		})
		if p == nil {
			t.Fatalf("Build(%q) returned nil", info.Name)
		}
		if p.Name() == "" {
			t.Errorf("%s: instance has no name", info.Name)
		}
		if p.Pending() != 0 {
			t.Errorf("%s: fresh instance has %d pending", info.Name, p.Pending())
		}
	}
}

// TestRebuildMatchesFreshBuild resets a used instance of every
// registered protocol — one left mid-run, with packets pending — to
// other inputs (another seed, κ 12 for 8, ALOHA p 0.2 for 0.05, an
// epoch observer where it had none) and requires the instance itself
// back, running exactly as a fresh build for those inputs: the same
// Result, and the same epochs reported.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	// The first run stops 40 slots into a 400-packet batch topped up
	// every slot, so a dba instance is cut with packets in every stage;
	// the second drains a Bernoulli load.
	run := func(info protocol.Info, kappa int, proto protocol.Protocol) *sim.Result {
		cfg := sim.Config{Kappa: kappa, Horizon: 40, Seed: uint64(kappa), LatencySamples: 64}
		var arr arrival.Process = &arrival.Merge{A: &arrival.Batch{N: 400}, B: &arrival.Bernoulli{Rate: 0.9}}
		if kappa == 12 {
			cfg.Horizon, cfg.Drain, arr = 600, true, &arrival.Bernoulli{Rate: 0.4}
		}
		if info.NoCDOnly {
			cfg.Medium = medium.NewClassical(medium.CDNone)
		}
		return sim.Run(cfg, proto, arr)
	}
	for _, info := range protocol.Registered() {
		used := protocol.Build(info.Name, protocol.Params{Kappa: 8, Rand: rng.New(1), AlohaP: 0.05})
		if res := run(info, 8, used); res.Pending == 0 {
			t.Errorf("%s: the first run left nothing pending", info.Name)
		}
		var fresh, reset []protocol.EpochInfo
		params := func(epochs *[]protocol.EpochInfo) protocol.Params {
			return protocol.Params{Kappa: 12, Rand: rng.New(2), AlohaP: 0.2,
				EpochObserver: protocol.EpochObserverFunc(func(e protocol.EpochInfo) { *epochs = append(*epochs, e) })}
		}
		want := run(info, 12, protocol.Build(info.Name, params(&fresh)))
		again := protocol.Rebuild(info.Name, params(&reset), used)
		if again != used {
			t.Errorf("%s: Rebuild built a new instance instead of resetting the used one", info.Name)
		}
		if got := run(info, 12, again); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the reset instance ran\n%v\nwhere a fresh build ran\n%v", info.Name, got, want)
		}
		if !reflect.DeepEqual(reset, fresh) {
			t.Errorf("%s: the reset instance reported %d epochs, a fresh build %d", info.Name, len(reset), len(fresh))
		}
	}
}

// TestRegisterRejects covers the registration guards.  Accepted
// registrations cannot be undone, so only the panicking paths are
// exercised; "dba" doubles as the duplicate case.
func TestRegisterRejects(t *testing.T) {
	build := func(protocol.Params, protocol.Protocol) protocol.Protocol { return nil }
	for name, info := range map[string]protocol.Info{
		"empty name":    {Build: build},
		"nil build":     {Name: "beb"},
		"non-canonical": {Name: "tdma", Build: build},
		"duplicate":     {Name: "dba", Build: build},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", name)
				}
			}()
			protocol.Register(info)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Build of an unknown protocol did not panic")
		}
	}()
	protocol.Build("tdma", protocol.Params{})
}
