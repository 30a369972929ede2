// Package emu is the slot-synchronized real-network emulation engine:
// it runs the same contention-resolution protocols the simulator runs,
// but with every station a separate goroutine (or OS process) speaking
// a small framed wire protocol to a coordinator over a pluggable
// Transport — in-proc pipes for swarm mode, reliable UDP with
// tru-style send/receive queues and retransmit-on-timeout for real
// networking.
//
// # Replica design
//
// Every station holds a full replica of the protocol, seeded
// identically, so all replicas march through the same state machine in
// lockstep.  Station i owns the packets whose ID satisfies
// id mod stations == i and reports only those transmitters; the
// coordinator concatenates the reports (channel media are
// transmitter-order-insensitive), adjudicates the slot on the very
// medium.Medium the simulator uses, and broadcasts the resulting
// feedback, which every replica observes identically.  Stations then
// report their replica's backlog, which must equal the engine's own
// in-flight count (packets are conserved), and next wake-up, which
// agrees across stations and feeds the simulator's own fast-forward.
//
// Because the coordinator drives sim.Loop — the extracted per-slot
// adjudication core of sim.Run — a run over a lossless transport
// produces a byte-identical *sim.Result to the simulator on the same
// configuration.  That equivalence is the correctness gate (tested in
// this package and in CI); a lossy transport (Fault) is then a new
// robustness regime, not a new code path.
//
// # Slot barrier
//
// Each opened slot costs one round trip.  The coordinator's Begin
// opens slot t′ with its injection batch and carries the feedback of
// the slots stepped since the last opened one; each station answers
// with one Report: its backlog and wake after them, the transmitters it
// owns in t′, and how far its replica's coast reaches (protocol.Coaster,
// asked right after Transmitters; every station must report the same
// end e).
// The coordinator can pick t′ before hearing about the slots before it
// because the backlog is its own count.
//
// A coast lets the coordinator step slots (t′, e] itself, on t′'s
// transmitters, for as long as each slot before the next is heard busy
// with no event and no collision and no arrival lands; the next Begin
// then carries the count of those slots ahead of its last slot's
// feedback, and the replicas observe them as plain busy slots.  Every
// other slot opens with a round trip: arrivals, events, silence,
// collisions, slots past the coast end, and every slot of a Waker,
// which never coasts.  Only a Waker whose wake can move t′ (a backlog,
// and no arrival possible next slot; see sim.Loop.WakeMatters) needs
// the replicas first: the feedback then goes alone and the Begin after
// it.  The coordinator never proceeds past the barrier until every
// station has answered or its timeout expires — a dead station fails
// the run loudly with a per-station error, never a hang.
package emu

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// protoSeedSalt decorrelates the protocol replicas' shared rng stream
// from the engine stream (arrivals, jamming, reservoir), mirroring the
// sweep harness's convention.
const protoSeedSalt = 0x70726f746f636f6c // "protocol"

const (
	defaultSlotTimeout    = 10 * time.Second
	defaultStationTimeout = 2 * time.Minute
	// doneDrainTimeout bounds how long Run waits for the final Done
	// frames to be acknowledged before tearing links down.
	doneDrainTimeout = 2 * time.Second
)

// Config parametrizes one emulation run.  The scenario fields are the
// scenario builder's descriptor (internal/scenario.Desc), under the
// same names but Medium for its Model; the builder holds their rules
// and defaults, as it does for crnsim and the sweep.  The
// emulation-only fields select the station topology and transport.
type Config struct {
	// Protocol is the registry axis name ("dba", "beb", ...).
	Protocol string
	// Medium is a channel-model descriptor — coded[:K[/W]],
	// classical[:none|binary|ternary], or capture[:K] (see
	// medium.ParseSpec).  Empty selects coded.
	Medium string
	// Kappa is the decoding threshold when the descriptor does not embed
	// one.
	Kappa int
	// MaxWindow caps decoding-window length where the descriptor embeds
	// no cap (0 = default 4κ on a bare coded medium).
	MaxWindow int

	// Arrival selects the arrival process: batch (also ""), bernoulli,
	// poisson, even, or burst.  Rate is its uniform intensity parameter;
	// BatchN overrides the batch size (0 = Rate×Horizon); BurstWindow
	// sets the burst window (0 = 16384).
	Arrival     string
	Rate        float64
	BatchN      int
	BurstWindow int
	// AlohaP is slotted ALOHA's transmission probability (0 = 0.001).
	AlohaP float64
	// Adversary optionally disrupts the run ("none", "random:RATE", ...;
	// see adversary.Parse).
	Adversary string

	// Horizon (≥ 1), Drain, DrainLimit, Seed, LatencySamples, and
	// SeriesCap have sim.Config semantics.
	Horizon        int64
	Drain          bool
	DrainLimit     int64
	Seed           uint64
	LatencySamples int
	SeriesCap      int

	// Stations is the number of stations packets are partitioned over
	// (≥ 1).
	Stations int
	// Transport selects swarm mode: "inproc" (default) or "udp"
	// (loopback).  Multi-process runs wire their own transports through
	// Coordinate and RunStation instead.
	Transport string
	// Fault injects datagram faults on UDP links (ignored by inproc).
	Fault Fault
	// SlotTimeout bounds how long the coordinator waits at each slot
	// barrier for one station's answer (0 = 10s).
	SlotTimeout time.Duration
}

// Check reports the first rule the configuration breaks — a station
// count below 1, or anything the scenario builder refuses — or nil if
// SimReference, Run and Coordinate would start the run.  A caller can
// thereby tell a refused configuration from a run that failed.
func (c Config) Check() error {
	if c.Stations < 1 {
		return fmt.Errorf("emu: Stations must be at least 1 (got %d)", c.Stations)
	}
	return c.desc().Check()
}

// build validates the configuration and builds one run through the
// scenario builder.  Media, adversaries and protocols are stateful, so
// every call builds fresh ones — call once per run.
func (c Config) build() (scenario.Built, error) {
	if err := c.Check(); err != nil {
		return scenario.Built{}, err
	}
	return c.desc().Build(c.Seed, c.Seed^protoSeedSalt, nil)
}

// desc is the configuration's scenario.
func (c Config) desc() scenario.Desc {
	return scenario.Desc{
		Model:          c.Medium,
		Protocol:       c.Protocol,
		Arrival:        c.Arrival,
		Adversary:      c.Adversary,
		Kappa:          c.Kappa,
		MaxWindow:      c.MaxWindow,
		Rate:           c.Rate,
		BatchN:         c.BatchN,
		BurstWindow:    int64(c.BurstWindow),
		AlohaP:         c.AlohaP,
		Horizon:        c.Horizon,
		Drain:          c.Drain,
		DrainLimit:     c.DrainLimit,
		LatencySamples: c.LatencySamples,
		SeriesCap:      c.SeriesCap,
	}
}

// wireConfig is the JSON blob the coordinator sends each station in
// answer to its Hello: everything a replica needs.  Arrivals, medium,
// and adversary stay coordinator-side — stations only ever see
// injection batches and feedback.
type wireConfig struct {
	Protocol  string  `json:"protocol"`
	Kappa     int     `json:"kappa"`
	AlohaP    float64 `json:"aloha_p"`
	ProtoSeed uint64  `json:"proto_seed"`
	Stations  int     `json:"stations"`
	Index     int     `json:"index"`
}

// StationStats is one station link's transport counters as seen from
// the coordinator.
type StationStats struct {
	Index int
	Conn  ConnStats
}

// Result is one emulation run's outcome: the engine Result — byte-
// identical to the simulator's over a lossless transport — plus the
// per-station transport statistics.
type Result struct {
	Sim      *sim.Result
	Stations []StationStats
}

// SimReference runs the plain simulator on the emulation configuration
// — the reference the lossless gate compares against.
func SimReference(cfg Config) (*sim.Result, error) {
	b, err := cfg.build()
	if err != nil {
		return nil, err
	}
	return sim.Run(b.Config, b.Proto, b.Arrival), nil
}

// Run executes one swarm-mode emulation: cfg.Stations station
// goroutines over in-proc pipes (Transport "inproc", the default) or
// loopback UDP ("udp"), coordinated in this process.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	stationTimeout := cfg.SlotTimeout
	if stationTimeout <= 0 {
		stationTimeout = defaultStationTimeout
	} else if stationTimeout < defaultStationTimeout {
		// Stations must outwait the coordinator so barrier failures are
		// adjudicated (and reported) coordinator-side.
		stationTimeout = 2 * stationTimeout
	}

	links := make([]Transport, cfg.Stations)
	var wg sync.WaitGroup
	stationErrs := make([]error, cfg.Stations)
	runStation := func(i int, t Transport) {
		defer wg.Done()
		defer t.Close()
		stationErrs[i] = RunStation(t, stationTimeout)
	}

	switch cfg.Transport {
	case "", "inproc":
		for i := range links {
			a, b := NewPipe()
			links[i] = a
			wg.Add(1)
			go runStation(i, b)
		}
	case "udp":
		ln, err := ListenUDP("127.0.0.1:0", cfg.Fault)
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addr := ln.Addr()
		for i := range links {
			fault := cfg.Fault
			if fault.active() {
				// Decorrelate each station's outbound fault stream.
				fault.Seed = cfg.Fault.Seed ^ (0xbf58476d1ce4e5b9 * uint64(i+1))
			}
			t, err := DialUDP(addr, fault)
			if err != nil {
				return nil, err
			}
			wg.Add(1)
			go runStation(i, t)
		}
		for i := range links {
			t, err := ln.Accept(stationTimeout)
			if err != nil {
				return nil, fmt.Errorf("emu: accepting station %d/%d: %w", i+1, cfg.Stations, err)
			}
			links[i] = t
		}
	default:
		return nil, fmt.Errorf("emu: unknown transport %q (want inproc or udp)", cfg.Transport)
	}

	res, coordErr := Coordinate(ctx, cfg, links)
	stations := make([]StationStats, len(links))
	for i, t := range links {
		if coordErr == nil {
			drainAcks(t, doneDrainTimeout)
		}
		stations[i] = StationStats{Index: i, Conn: t.Stats()}
		t.Close()
	}
	wg.Wait()
	if coordErr != nil {
		return nil, coordErr
	}
	for i, err := range stationErrs {
		if err != nil && !errors.Is(err, ErrClosed) {
			return nil, fmt.Errorf("emu: station %d: %w", i, err)
		}
	}
	return &Result{Sim: res, Stations: stations}, nil
}

// drainAcks waits until the link's send queue empties (every frame
// acknowledged) or the timeout passes — so the final Done is not lost
// to an immediate Close on a lossy link.
func drainAcks(t Transport, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for t.Stats().SendQueue > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// Coordinate drives one emulation run over already-established station
// links (links[i] becomes station i).  It owns the handshake, the
// per-slot barrier, adjudication via sim.Loop, and teardown frames; it
// does not close the links.
func Coordinate(ctx context.Context, cfg Config, links []Transport) (*sim.Result, error) {
	// abort tells every station why the run ended, so none waits out its
	// timeout for a barrier that will not come.
	abort := func(err error) error {
		msg := []byte(err.Error())
		for _, t := range links {
			_ = t.Send(&Frame{Type: FrameError, Blob: msg})
		}
		return err
	}
	b, err := cfg.build()
	if err != nil {
		return nil, abort(err)
	}
	if len(links) != cfg.Stations {
		return nil, abort(fmt.Errorf("emu: %d links for %d stations", len(links), cfg.Stations))
	}
	timeout := cfg.SlotTimeout
	if timeout <= 0 {
		timeout = defaultSlotTimeout
	}

	// The coordinator's own instance never runs: it names the protocol
	// in the Result (Name may embellish the axis name) and says whether
	// it is a Waker.
	_, isWaker := b.Proto.(protocol.Waker)

	// Handshake: every station says Hello, and is told who it is.
	for i, t := range links {
		f, err := t.Recv(timeout)
		if err != nil {
			return nil, abort(fmt.Errorf("emu: station %d: awaiting hello: %w", i, err))
		}
		if f.Type == FrameError {
			return nil, fmt.Errorf("emu: station %d: %s", i, f.Blob)
		}
		if f.Type != FrameHello {
			return nil, abort(fmt.Errorf("emu: station %d: expected hello, got %s", i, f.Type))
		}
		blob, err := json.Marshal(wireConfig{
			Protocol:  cfg.Protocol,
			Kappa:     b.Config.Kappa,
			AlohaP:    b.AlohaP,
			ProtoSeed: cfg.Seed ^ protoSeedSalt,
			Stations:  cfg.Stations,
			Index:     i,
		})
		if err != nil {
			return nil, abort(err)
		}
		if err := t.Send(&Frame{Type: FrameConfig, Blob: blob}); err != nil {
			return nil, abort(fmt.Errorf("emu: station %d: sending config: %w", i, err))
		}
	}

	l := sim.NewLoop(b.Config, b.Proto.Name(), b.Arrival)
	m := l.Medium()
	var txs []channel.PacketID
	// One Begin, rewritten for every broadcast (Send keeps no reference
	// to it).  Between slots it holds the feedback the replicas are still
	// owed, and expect holds the engine's backlog after those slots.
	begin := Frame{Type: FrameBegin}
	var expect int64
	// coastEnd is the last slot the replicas promised to keep the opened
	// slot's transmitters through (that slot itself: no promise).
	var coastEnd int64

	// exchange broadcasts begin and collects one Report per station, in
	// station order, failing loudly (naming the station) on a timeout, a
	// mismatched frame, a station-reported error or replica divergence.
	// It gathers the owned transmitters into txs and returns station 0's
	// Report, whose wake and coast every other station matched.
	exchange := func() (*Frame, error) {
		want := Frame{Type: FrameReport, HasPrev: begin.HasPrev, Prev: begin.Prev, HasSlot: begin.HasSlot, Slot: begin.Slot}
		for i, t := range links {
			if err := t.Send(&begin); err != nil {
				return nil, fmt.Errorf("emu: station %d: sending %s: %w", i, begin.about(), err)
			}
		}
		txs = txs[:0]
		var ref *Frame
		for i, t := range links {
			f, err := t.Recv(timeout)
			if err != nil {
				return nil, fmt.Errorf("emu: station %d: awaiting %s: %w", i, want.about(), err)
			}
			if f.Type == FrameError {
				return nil, fmt.Errorf("emu: station %d: %s", i, f.Blob)
			}
			if f.Type != FrameReport || f.HasPrev != want.HasPrev || f.Prev != want.Prev ||
				f.HasSlot != want.HasSlot || f.Slot != want.Slot {
				return nil, fmt.Errorf("emu: station %d: expected %s, got %s", i, want.about(), f.about())
			}
			if i == 0 {
				ref = f
			}
			// Replicas are deterministic and conserve packets: a backlog
			// other than the engine's count, or a wake or coast other than
			// station 0's, means a replica diverged (a frame lost past the
			// reliable layer, a state bug) and the run is invalid.
			if f.HasPrev && f.Pending != expect {
				return nil, fmt.Errorf("emu: replica divergence after slot %d: station %d reports backlog %d, the engine counts %d",
					f.Prev, i, f.Pending, expect)
			}
			if f.HasWake != ref.HasWake || f.NextWake != ref.NextWake {
				return nil, fmt.Errorf("emu: replica divergence after slot %d: station %d reports wake %v/%d, station 0 reports %v/%d",
					f.Prev, i, f.HasWake, f.NextWake, ref.HasWake, ref.NextWake)
			}
			if f.Coast != ref.Coast {
				return nil, fmt.Errorf("emu: replica divergence in slot %d: station %d reports a coast of %d slots, station 0 reports %d",
					f.Slot, i, f.Coast, ref.Coast)
			}
			txs = append(txs, f.Txs...)
		}
		return ref, nil
	}

	for l.Running(l.InFlight()) {
		if err := ctx.Err(); err != nil {
			return nil, abort(err)
		}
		now := l.Now()
		ids := l.InjectNow()

		// A slot the replicas' coast covers is stepped here, on the opened
		// slot's transmitters, while the slot before it was heard busy
		// with no event and no collision and nothing arrives: that slot's
		// feedback joins the run the next Begin carries.  Any other slot
		// opens with the slot barrier: one round trip delivers the
		// feedback the replicas are owed and opens the slot.  Packet IDs
		// are issued sequentially, so (first, count) broadcasts the batch.
		run := int64(0)
		if len(ids) == 0 && now <= coastEnd && begin.HasPrev && begin.Prev == now-1 &&
			!begin.Silent && !begin.Collision && !begin.HasEvent {
			run = begin.Run + 1
		} else {
			begin.HasSlot, begin.Slot = true, now
			if len(ids) > 0 {
				begin.InjFirst = int64(ids[0])
				begin.InjN = int32(len(ids))
			}
			ref, err := exchange()
			if err != nil {
				return nil, abort(err)
			}
			coastEnd = now + ref.Coast
		}

		// Adjudicate the slot on the medium.  Station order is irrelevant:
		// media are transmitter-order-insensitive by contract.  The next
		// Begin carries the feedback, and goes out before the next Step
		// may reuse the event's packet storage (a slot with an event ends
		// any run).
		_, ev := m.Step(now, txs)
		fb := l.Observe(ev)
		backlog := l.InFlight()
		l.Record(backlog)
		begin = Frame{Type: FrameBegin, HasPrev: true, Prev: now, Run: run, Silent: fb.Silent, Collision: fb.Collision}
		if fb.Event != nil {
			begin.HasEvent = true
			begin.EvSlot = fb.Event.Slot
			begin.WindowStart = fb.Event.WindowStart
			begin.Txs = fb.Event.Packets
		}
		expect = int64(backlog)

		// The engine's count is the replicas' backlog, so the next slot is
		// known before they report — unless a Waker's wake can move it.
		// Only then does the feedback go alone, and the wake comes back
		// before the next Begin.
		var wake func(int64) int64
		if isWaker && l.WakeMatters(backlog) {
			ref, err := exchange()
			if err != nil {
				return nil, abort(err)
			}
			begin = Frame{Type: FrameBegin}
			if nw := ref.NextWake; ref.HasWake {
				wake = func(int64) int64 { return nw }
			}
		}
		if !l.Advance(backlog, wake) {
			break
		}
	}

	// Deliver the last slots' feedback and check the final backlog.
	if begin.HasPrev {
		if _, err := exchange(); err != nil {
			return nil, abort(err)
		}
	}
	for _, t := range links {
		_ = t.Send(&Frame{Type: FrameDone})
	}
	return l.Finish(l.InFlight()), nil
}

// RunStation speaks the station side of the wire protocol over t: it
// sends Hello, builds its protocol replica from the returned Config,
// answers every slot barrier until Done or Error, and returns the
// run's outcome.  timeout bounds each Recv (0 = 2 minutes) so a dead
// coordinator fails the station loudly instead of hanging it.
func RunStation(t Transport, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultStationTimeout
	}
	fail := func(err error) error {
		_ = t.Send(&Frame{Type: FrameError, Blob: []byte(err.Error())})
		return err
	}
	if err := t.Send(&Frame{Type: FrameHello}); err != nil {
		return err
	}
	f, err := t.Recv(timeout)
	if err != nil {
		return fmt.Errorf("emu: awaiting config: %w", err)
	}
	if f.Type == FrameError {
		return fmt.Errorf("emu: coordinator: %s", f.Blob)
	}
	if f.Type != FrameConfig {
		return fail(fmt.Errorf("emu: expected config, got %s", f.Type))
	}
	var wc wireConfig
	if err := json.Unmarshal(f.Blob, &wc); err != nil {
		return fail(fmt.Errorf("emu: bad config: %w", err))
	}
	if wc.Stations < 1 || wc.Index < 0 || wc.Index >= wc.Stations {
		return fail(fmt.Errorf("emu: bad config: station %d of %d", wc.Index, wc.Stations))
	}
	if _, ok := protocol.Lookup(wc.Protocol); !ok {
		return fail(fmt.Errorf("emu: bad config: unknown protocol %q", wc.Protocol))
	}
	proto := protocol.Build(wc.Protocol, protocol.Params{
		Kappa:  wc.Kappa,
		Rand:   rng.New(wc.ProtoSeed),
		AlohaP: wc.AlohaP,
	})
	waker, _ := proto.(protocol.Waker)
	// A Waker's every slot opens with a round trip, so it reports no
	// coast.
	coaster, _ := proto.(protocol.Coaster)
	if waker != nil {
		coaster = nil
	}
	stations := int64(wc.Stations)
	index := int64(wc.Index)

	var buf []channel.PacketID
	var ids []channel.PacketID
	// One Report per Begin, rewritten every slot: Send keeps no
	// reference to it.
	var rep Frame
	for {
		f, err := t.Recv(timeout)
		if err != nil {
			return fmt.Errorf("emu: awaiting slot frame: %w", err)
		}
		switch f.Type {
		case FrameBegin:
			rep = Frame{Type: FrameReport, HasPrev: f.HasPrev, Prev: f.Prev, HasSlot: f.HasSlot, Slot: f.Slot}
			if f.HasPrev {
				// The coordinator stepped the run's slots itself, on the
				// transmitters this replica's coast promised; each was heard
				// busy with no event and no collision.
				for s := f.Prev - f.Run; s < f.Prev; s++ {
					proto.Observe(channel.Feedback{Slot: s})
				}
				fb := channel.Feedback{Slot: f.Prev, Silent: f.Silent, Collision: f.Collision}
				if f.HasEvent {
					fb.Event = &channel.Event{Slot: f.EvSlot, WindowStart: f.WindowStart, Packets: f.Txs}
				}
				proto.Observe(fb)
				rep.Pending = int64(proto.Pending())
				// NextWake may lazily rewrite protocol state, so replicas call
				// it exactly when the simulator's advance would: non-empty
				// backlog on a Waker protocol.
				if rep.Pending > 0 && waker != nil {
					rep.HasWake = true
					rep.NextWake = waker.NextWake(f.Prev)
				}
			}
			if f.HasSlot {
				if f.InjN > 0 {
					ids = ids[:0]
					for k := int32(0); k < f.InjN; k++ {
						ids = append(ids, channel.PacketID(f.InjFirst+int64(k)))
					}
					proto.Inject(f.Slot, ids)
				}
				buf = proto.Transmitters(f.Slot, buf[:0])
				if coaster != nil {
					rep.Coast = coaster.CoastUntil(f.Slot) - f.Slot
				}
				// Report only the owned partition; the other replicas report
				// theirs, and the coordinator reassembles the full set.
				mine := buf[:0]
				for _, id := range buf {
					if int64(id)%stations == index {
						mine = append(mine, id)
					}
				}
				rep.Txs = mine
			}
			if err := t.Send(&rep); err != nil {
				return err
			}
		case FrameDone:
			return nil
		case FrameError:
			return fmt.Errorf("emu: coordinator: %s", f.Blob)
		default:
			return fail(fmt.Errorf("emu: unexpected %s frame", f.Type))
		}
	}
}
