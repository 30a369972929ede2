package emu

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// grid is the lossless-equivalence matrix: every registered protocol on
// a medium it pairs with, plus arrival/adversary variety, sized to run
// in test time.
var grid = []struct {
	name string
	cfg  Config
}{
	{"dba-coded-batch", Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "batch", BatchN: 96, Horizon: 1, Drain: true,
		Seed: 11, Stations: 3,
	}},
	{"beb-classical-bernoulli", Config{
		Protocol: "beb", Medium: "classical:ternary",
		Arrival: "bernoulli", Rate: 0.02, Horizon: 1500, Drain: true,
		Seed: 23, Stations: 2,
	}},
	// A batch leaves beb a backlog with no arrival to come, so its wake
	// decides every next slot: the two-round-trip split path.
	{"beb-classical-batch", Config{
		Protocol: "beb", Medium: "classical:ternary",
		Arrival: "batch", BatchN: 16, Horizon: 1, Drain: true,
		Seed: 29, Stations: 2,
	}},
	{"aloha-capture-poisson", Config{
		Protocol: "aloha", Medium: "capture:4", AlohaP: 0.01,
		Arrival: "poisson", Rate: 0.005, Horizon: 1200, Drain: true,
		Seed: 31, Stations: 2,
	}},
	{"genie-classical-binary-even", Config{
		Protocol: "genie", Medium: "classical:binary",
		Arrival: "even", Rate: 0.01, Horizon: 1200, Drain: true,
		Seed: 41, Stations: 3,
	}},
	{"mw-coded-burst", Config{
		Protocol: "mw", Medium: "coded:6", Kappa: 6,
		Arrival: "burst", Rate: 0.01, BurstWindow: 256, Horizon: 1024, Drain: true,
		Seed: 53, Stations: 2,
	}},
	{"robust-nocd-batch", Config{
		Protocol: "robust", Medium: "classical:none",
		Arrival: "batch", BatchN: 24, Horizon: 1, Drain: true,
		Seed: 61, Stations: 2,
	}},
	{"unbounded-nocd-batch", Config{
		Protocol: "unbounded", Medium: "classical:none",
		Arrival: "batch", BatchN: 24, Horizon: 1, Drain: true,
		Seed: 71, Stations: 3,
	}},
	{"dba-coded-adversary", Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "bernoulli", Rate: 0.05, Horizon: 800, Drain: true,
		Adversary: "random:0.1", Seed: 83, Stations: 2,
	}},
}

// mustEqualSim fails unless the emulation Result is deeply equal to the
// simulator reference — the lossless correctness gate.
func mustEqualSim(t *testing.T, got *sim.Result, cfg Config) {
	t.Helper()
	want, err := SimReference(cfg)
	if err != nil {
		t.Fatalf("SimReference: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emulation diverges from simulator:\n emu %s\n sim %s\n emu %+v\n sim %+v",
			got, want, got, want)
	}
}

// TestInprocMatchesSim is the correctness gate in swarm mode: over the
// lossless in-proc transport, every grid cell must reproduce the
// simulator's Result exactly.
func TestInprocMatchesSim(t *testing.T) {
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mustEqualSim(t, res.Sim, tc.cfg)
			for _, st := range res.Stations {
				if st.Conn.FramesSent == 0 || st.Conn.FramesRecv == 0 {
					t.Errorf("station %d moved no frames: %+v", st.Index, st.Conn)
				}
			}
		})
	}
}

// TestUDPMatchesSim runs the gate over real loopback UDP: the reliable
// link must deliver the same bytes, hence the same Result.  The first
// three cells cover DBA and both beb barrier paths.
func TestUDPMatchesSim(t *testing.T) {
	for _, tc := range grid[:3] {
		tc := tc
		tc.cfg.Transport = "udp"
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			mustEqualSim(t, res.Sim, tc.cfg)
			for _, st := range res.Stations {
				if st.Conn.SegsSent == 0 || st.Conn.SegsRecv == 0 {
					t.Errorf("station %d moved no segments: %+v", st.Index, st.Conn)
				}
			}
		})
	}
}

// gridCell returns the named grid cell's configuration.
func gridCell(t *testing.T, name string) Config {
	t.Helper()
	for _, tc := range grid {
		if tc.name == name {
			return tc.cfg
		}
	}
	t.Fatalf("no grid cell %q", name)
	return Config{}
}

// coordinateWrapped runs cfg over in-proc pipes as Run does, but hands
// Coordinate wrap(i, link) as station i's link.
func coordinateWrapped(t testing.TB, cfg Config, wrap func(i int, l Transport) Transport) (*sim.Result, error) {
	t.Helper()
	links := make([]Transport, cfg.Stations)
	var wg sync.WaitGroup
	for i := range links {
		a, b := NewPipe()
		links[i] = wrap(i, a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer b.Close()
			_ = RunStation(b, 5*time.Second)
		}()
	}
	res, err := Coordinate(context.Background(), cfg, links)
	wg.Wait()
	for _, l := range links {
		l.Close()
	}
	return res, err
}

// countingLink counts the frames the coordinator sends one station:
// all of them, and the Begins that open a slot.
type countingLink struct {
	Transport
	sent, opened int
}

func (c *countingLink) Send(f *Frame) error {
	c.sent++
	if f.Type == FrameBegin && f.HasSlot {
		c.opened++
	}
	return c.Transport.Send(f)
}

// slotCounter wraps the protocol of a simulator run to count the slots
// it steps (each is observed exactly once), the stepped slots the
// coordinator must open with a round trip, and, for a Waker, the
// stepped slots the coordinator must split: a backlog, and no arrival
// possible next slot.  A slot need not be opened when the coast asked
// at the last opened slot covers it, the slot before it was stepped and
// heard busy with no event and no collision, and nothing arrives in it.
// Hiding Coaster from the simulator changes no stepped slot and makes
// it collect transmitters in every one; a Waker keeps its NextWake
// through wakingCounter, and never coasts.
type slotCounter struct {
	protocol.Protocol
	arr             arrival.Process
	horizon         int64
	waker           bool
	coaster         protocol.Coaster
	stepped, splits int
	opened          int
	lastSplit       bool

	injected, last, coastEnd int64
	plainBusy                bool
}

func (c *slotCounter) Inject(now int64, ids []channel.PacketID) {
	c.Protocol.Inject(now, ids)
	c.injected = now
}

func (c *slotCounter) Transmitters(now int64, buf []channel.PacketID) []channel.PacketID {
	buf = c.Protocol.Transmitters(now, buf)
	if now <= c.coastEnd && c.last == now-1 && c.plainBusy && c.injected != now {
		return buf
	}
	c.opened++
	c.coastEnd = -1
	if c.coaster != nil {
		c.coastEnd = c.coaster.CoastUntil(now)
	}
	return buf
}

func (c *slotCounter) Observe(fb channel.Feedback) {
	c.Protocol.Observe(fb)
	c.stepped++
	now := fb.Slot
	c.last, c.plainBusy = now, !fb.Silent && !fb.Collision && fb.Event == nil
	c.lastSplit = c.waker && c.Pending() > 0 && !(now+1 < c.horizon && c.arr.NextAfter(now) == now+1)
	if c.lastSplit {
		c.splits++
	}
}

type wakingCounter struct {
	*slotCounter
	protocol.Waker
}

// countSlots runs the simulator on cfg under a slotCounter.
func countSlots(t testing.TB, cfg Config) *slotCounter {
	t.Helper()
	b, err := cfg.build()
	if err != nil {
		t.Fatal(err)
	}
	c := &slotCounter{Protocol: b.Proto, arr: b.Arrival, horizon: b.Config.Horizon, injected: -1, last: -1, coastEnd: -1}
	var p protocol.Protocol = c
	if w, ok := b.Proto.(protocol.Waker); ok {
		c.waker = true
		p = wakingCounter{c, w}
	} else {
		c.coaster, _ = b.Proto.(protocol.Coaster)
	}
	sim.Run(b.Config, p, b.Arrival)
	return c
}

// TestOneRoundTripPerSlot pins the slot barrier by counting the frames
// the coordinator sends each station: one Begin per opened slot, plus
// Config, the last slots' feedback and Done.  Slots a Coaster's coast
// covers are stepped without a round trip, so a Coaster cell opens
// fewer slots than it steps and every other cell opens them all.  A
// Waker whose wake can move the next slot sends that slot's feedback
// alone first (the last one then needs no final Begin); its cells log
// how many stepped slots took that split.
func TestOneRoundTripPerSlot(t *testing.T) {
	const handshakeAndTeardown = 3
	for _, tc := range grid {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			links := make([]*countingLink, tc.cfg.Stations)
			res, err := coordinateWrapped(t, tc.cfg, func(i int, l Transport) Transport {
				links[i] = &countingLink{Transport: l}
				return links[i]
			})
			if err != nil {
				t.Fatalf("Coordinate: %v", err)
			}
			mustEqualSim(t, res, tc.cfg)
			c := countSlots(t, tc.cfg)
			want := c.opened + c.splits + handshakeAndTeardown
			if c.lastSplit {
				want--
			}
			for i, l := range links {
				if l.opened != c.opened || l.sent != want {
					t.Errorf("station %d: sent %d frames, %d opening a slot; want %d, %d (%d stepped slots, %d split)",
						i, l.sent, l.opened, want, c.opened, c.stepped, c.splits)
				}
			}
			switch {
			case c.coaster == nil && c.opened != c.stepped:
				t.Errorf("%d of %d stepped slots opened without a coast", c.opened, c.stepped)
			case c.coaster != nil && c.opened >= c.stepped:
				t.Errorf("coaster opened %d of %d stepped slots; want fewer", c.opened, c.stepped)
			case c.coaster != nil:
				t.Logf("%d of %d stepped slots opened with a round trip", c.opened, c.stepped)
			}
			if c.waker {
				t.Logf("%d frames per station over %d stepped slots; %d took the two-round-trip split",
					links[0].sent, c.stepped, c.splits)
			}
		})
	}
}

// tamperLink rewrites the first Report edit accepts on one
// coordinator-side link, as a diverged replica would have sent it.
type tamperLink struct {
	Transport
	edit func(f *Frame) bool
	done bool
}

func (l *tamperLink) Recv(timeout time.Duration) (*Frame, error) {
	f, err := l.Transport.Recv(timeout)
	if err == nil && !l.done && f.Type == FrameReport {
		l.done = l.edit(f)
	}
	return f, err
}

// TestReplicaDivergenceFailsRun: the coordinator trusts its own packet
// count, so a station whose backlog strays from it must fail the run
// with an error naming the station, the slot and both values — station
// 0 included, which is not compared with any other station.  Wakes and
// coasts must agree with station 0's.
func TestReplicaDivergenceFailsRun(t *testing.T) {
	t.Run("backlog", func(t *testing.T) {
		// Slots a coast covers are reported in bulk, so tamper with the
		// first report from slot 5 on.
		const station, from = 0, 5
		prev, counted := int64(-1), int64(-1)
		_, err := coordinateWrapped(t, gridCell(t, "dba-coded-batch"), func(i int, l Transport) Transport {
			if i != station {
				return l
			}
			return &tamperLink{Transport: l, edit: func(f *Frame) bool {
				if !f.HasPrev || f.Prev < from {
					return false
				}
				prev, counted = f.Prev, f.Pending
				f.Pending++
				return true
			}}
		})
		if counted < 0 {
			t.Fatalf("no slot from %d on was reported", from)
		}
		want := fmt.Sprintf("replica divergence after slot %d: station %d reports backlog %d, the engine counts %d",
			prev, station, counted+1, counted)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	})
	t.Run("coast", func(t *testing.T) {
		const station = 1
		slot, coast := int64(-1), int64(0)
		_, err := coordinateWrapped(t, gridCell(t, "dba-coded-batch"), func(i int, l Transport) Transport {
			if i != station {
				return l
			}
			return &tamperLink{Transport: l, edit: func(f *Frame) bool {
				if f.Coast == 0 {
					return false
				}
				slot, coast = f.Slot, f.Coast
				f.Coast++
				return true
			}}
		})
		if slot < 0 {
			t.Fatal("no station reported a coast")
		}
		want := fmt.Sprintf("replica divergence in slot %d: station %d reports a coast of %d slots, station 0 reports %d",
			slot, station, coast+1, coast)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	})
	t.Run("wake", func(t *testing.T) {
		const station = 1
		prev, wake := int64(-1), int64(0)
		_, err := coordinateWrapped(t, gridCell(t, "beb-classical-batch"), func(i int, l Transport) Transport {
			if i != station {
				return l
			}
			return &tamperLink{Transport: l, edit: func(f *Frame) bool {
				if !f.HasWake {
					return false
				}
				prev, wake = f.Prev, f.NextWake
				f.NextWake++
				return true
			}}
		})
		if prev < 0 {
			t.Fatal("no station reported a wake")
		}
		want := fmt.Sprintf("replica divergence after slot %d: station %d reports wake true/%d, station 0 reports true/%d",
			prev, station, wake+1, wake)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	})
}

// TestLossyUDPConverges injects datagram drops and duplicates on every
// link: the retransmit layer must absorb them — the run completes, the
// Result still matches the simulator exactly, and the stats prove
// faults actually fired.
func TestLossyUDPConverges(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "batch", BatchN: 800, Horizon: 1, Drain: true,
		Seed: 97, Stations: 3,
		Transport: "udp",
		Fault:     Fault{DropRate: 0.01, DupRate: 0.01, Seed: 5},
	}
	res, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("Run under faults: %v", err)
	}
	// The reliable layer makes the lossy link lossless at frame level.
	lossless := cfg
	lossless.Fault = Fault{}
	mustEqualSim(t, res.Sim, lossless)
	var drops, dups, retrans uint64
	for _, st := range res.Stations {
		drops += st.Conn.FaultDrops
		dups += st.Conn.FaultDups
		retrans += st.Conn.Retransmits
	}
	t.Logf("drops=%d dups=%d retrans=%d", drops, dups, retrans)
	if drops == 0 || dups == 0 {
		t.Errorf("fault plan never fired: drops=%d dups=%d", drops, dups)
	}
	if retrans == 0 {
		t.Errorf("no retransmissions despite %d injected drops", drops)
	}
}

// TestDeadStationFailsLoudly starves the coordinator of one station's
// answers: the run must fail with an error naming that station, within
// the slot timeout — never hang.
func TestDeadStationFailsLoudly(t *testing.T) {
	cfg := Config{
		Protocol: "beb", Medium: "classical:ternary",
		Arrival: "batch", BatchN: 8, Horizon: 1, Drain: true,
		Seed: 1, Stations: 2,
		SlotTimeout: 200 * time.Millisecond,
	}
	a0, b0 := NewPipe()
	a1, b1 := NewPipe() // peer never speaks
	defer a0.Close()
	defer a1.Close()
	defer b1.Close()
	done := make(chan error, 1)
	go func() { done <- RunStation(b0, 5*time.Second) }()

	start := time.Now()
	_, err := Coordinate(context.Background(), cfg, []Transport{a0, a1})
	if err == nil {
		t.Fatal("Coordinate succeeded with a dead station")
	}
	if !strings.Contains(err.Error(), "station 1") {
		t.Errorf("error does not name the dead station: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("dead station took %v to fail (want ≈ slot timeout)", elapsed)
	}
	// The live station must be released by the abort broadcast.
	select {
	case serr := <-done:
		if serr == nil {
			t.Error("live station exited without the coordinator error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live station hung after coordinator abort")
	}
}

// TestStationTimeoutOutwaitsCoordinator: swarm stations wait twice the
// coordinator's slot timeout at every setting, so a barrier failure is
// always adjudicated coordinator-side.
func TestStationTimeoutOutwaitsCoordinator(t *testing.T) {
	for _, c := range []struct{ slot, want time.Duration }{
		{0, defaultStationTimeout},
		{10 * time.Second, 20 * time.Second},
		{119 * time.Second, 238 * time.Second},
		{120 * time.Second, 240 * time.Second},
		{5 * time.Minute, 10 * time.Minute},
	} {
		if got := stationTimeout(c.slot); got != c.want {
			t.Errorf("slot timeout %v: stations wait %v, want %v", c.slot, got, c.want)
		}
	}
}

// TestStationRejectsHostileCoordinator feeds a station garbage instead
// of the handshake: it must fail fast with an error, not hang.
func TestStationRejectsHostileCoordinator(t *testing.T) {
	a, b := NewPipe()
	defer a.Close()
	done := make(chan error, 1)
	go func() { done <- RunStation(b, 5*time.Second) }()
	if f, err := a.Recv(5 * time.Second); err != nil || f.Type != FrameHello {
		t.Fatalf("expected hello, got %v, %v", f, err)
	}
	if err := a.Send(&Frame{Type: FrameBegin, HasSlot: true, Slot: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("station accepted a begin frame as its config")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("station hung on hostile coordinator")
	}
	// The station must also have reported the failure to the wire.
	if f, err := a.Recv(5 * time.Second); err != nil || f.Type != FrameError {
		t.Errorf("expected error frame back, got %v, %v", f, err)
	}
}

// TestRunValidatesConfig exercises the loud-failure configuration paths.
func TestRunValidatesConfig(t *testing.T) {
	bad := []Config{
		{Protocol: "dba", Kappa: 8, Horizon: 1, Stations: 0},
		{Protocol: "nope", Kappa: 8, Horizon: 1, Stations: 1},
		{Protocol: "dba", Medium: "classical:ternary", Horizon: 1, Stations: 1},
		{Protocol: "robust", Medium: "coded", Kappa: 8, Horizon: 1, Stations: 1},
		{Protocol: "beb", Medium: "warp", Horizon: 1, Stations: 1},
		{Protocol: "beb", Kappa: 8, Horizon: 1, Stations: 1, Arrival: "nope"},
		{Protocol: "beb", Kappa: 8, Horizon: 1, Stations: 1, Adversary: "nope"},
		{Protocol: "dba", Kappa: 0, Horizon: 1, Stations: 1},
		{Protocol: "dba", Kappa: 8, Horizon: 1, Stations: 1, Transport: "tcp"},
		// Below dba's minimum κ, set directly or embedded in the
		// descriptor (which wins over Kappa).
		{Protocol: "dba", Kappa: 2, Horizon: 1, Stations: 1},
		{Protocol: "dba", Medium: "coded:4", Kappa: 8, Horizon: 1, Stations: 1},
		{Protocol: "unbounded", Medium: "classical:ternary", Horizon: 1, Stations: 1},
		// The scenario builder's refusals, as crnemu's flags reach them.
		{Protocol: "beb", Kappa: 0, Horizon: 1, Stations: 1},
		{Protocol: "beb", Kappa: 8, Arrival: "burst", Rate: 0.5, BurstWindow: -5, Horizon: 1, Stations: 1},
		{Protocol: "aloha", Medium: "classical", AlohaP: 2, BatchN: 10, Horizon: 1, Stations: 1},
		{Protocol: "beb", Medium: "classical:none", Adversary: "reactive:4/8", BatchN: 10, Horizon: 1, Stations: 1},
		{Protocol: "beb", Kappa: 8, BatchN: -3, Horizon: 1, Stations: 1},
		{Protocol: "beb", Kappa: 8, BatchN: 10, Horizon: 0, Stations: 1},
		{Protocol: "beb", Kappa: 8, Arrival: "bernoulli", Rate: -0.1, Horizon: 10, Stations: 1},
		{Protocol: "beb", Kappa: 8, BatchN: 10, Horizon: 1, LatencySamples: -5, Stations: 1},
	}
	for _, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("Run accepted invalid config %+v", cfg)
		}
		if _, err := SimReference(cfg); err == nil && cfg.Transport == "" {
			t.Errorf("SimReference accepted invalid config %+v", cfg)
		}
	}
}

// TestRunHonorsContext: a cancelled context aborts the run promptly
// with the context's error.
func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := grid[0].cfg
	_, err := Run(ctx, cfg)
	if err == nil {
		t.Fatal("Run succeeded under a cancelled context")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error does not surface cancellation: %v", err)
	}
}
