package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/emu"
	"repro/internal/sim"
)

// emu-udp: a swarm emulation of Decodable Backoff on the coded channel,
// κ=8, one batch, two stations over loopback UDP, configured as crnemu's
// defaults configure it.
const (
	emuN        = 30000
	emuKappa    = 8
	emuStations = 2
	emuWarmN    = 256 // set-up warm-up batch
	// emuSlotTimeout is crnemu's default per-slot barrier patience;
	// stations wait twice as long, as emu.Run makes them.
	emuSlotTimeout = 10 * time.Second
	emuRunTimeout  = 60 * time.Second
	// codecPasses is how often the captured frames are re-encoded and
	// re-decoded; the per-frame figures are the median pass.
	codecPasses = 5
)

func emuConfig(seed uint64, n int) emu.Config {
	return emu.Config{
		Protocol: "dba", Medium: "coded", Kappa: emuKappa,
		Arrival: "batch", Rate: 0.5, BatchN: n, Adversary: "none",
		Horizon: 100_000, Drain: true, Seed: seed,
		Stations: emuStations, Transport: "udp", SlotTimeout: emuSlotTimeout,
	}
}

type emuUDP struct {
	cfg  emu.Config
	want string // digest of emu.SimReference on cfg
}

type emuOut struct {
	res *emu.Result
	err error
}

func setupEmuUDP(seed uint64, _ string) (instance, error) {
	warm := &emuUDP{cfg: emuConfig(seed, emuWarmN)}
	if err := warm.reference(); err != nil {
		return nil, err
	}
	if s := warm.check(warm.run()); s.err != nil {
		return nil, fmt.Errorf("warm-up emulation: %w", s.err)
	}
	e := &emuUDP{cfg: emuConfig(seed, emuN)}
	return e, e.reference()
}

// reference computes the plain-simulator Result every emulation must
// reproduce.
func (e *emuUDP) reference() error {
	ref, err := emu.SimReference(e.cfg)
	if err != nil {
		return err
	}
	e.want = resultDigest(ref)
	return nil
}

func (e *emuUDP) run() any {
	ctx, cancel := context.WithTimeout(context.Background(), emuRunTimeout)
	defer cancel()
	res, err := emu.Run(ctx, e.cfg)
	return emuOut{res, err}
}

func (e *emuUDP) check(o any) sample {
	out := o.(emuOut)
	if out.err != nil {
		return sample{err: out.err}
	}
	r := out.res.Sim
	s := sample{slots: float64(r.Elapsed), cells: 1, throughput: r.CompletionThroughput()}
	s.err = e.verify(r)
	return s
}

func (e *emuUDP) verify(r *sim.Result) error {
	if dg := resultDigest(r); dg != e.want {
		return fmt.Errorf("emulation result digest %s, want emu.SimReference's %s", dg, e.want)
	}
	return nil
}

func (e *emuUDP) close() {}

// traced wires the UDP swarm the way emu.Run does, but hands
// emu.Coordinate links wrapped in a timing Transport, then replays the
// frames the coordinator sent and received through Frame.Append and
// Frame.Decode.
func (e *emuUDP) traced(spans *spanLog) (map[string]float64, time.Duration, error) {
	rep := spans.begin("emu-udp.traced", -1)
	defer spans.end(rep)

	ln, err := emu.ListenUDP("127.0.0.1:0", emu.Fault{})
	if err != nil {
		return nil, 0, err
	}
	defer ln.Close()
	stationTimeout := 2 * emuSlotTimeout
	stations := make([]emu.Transport, 0, emuStations)
	stationErrs := make([]error, emuStations)
	var wg sync.WaitGroup
	// On every path, stop the stations and wait for them; closing a
	// transport twice is harmless.
	defer func() {
		for _, t := range stations {
			t.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < emuStations; i++ {
		t, err := emu.DialUDP(ln.Addr(), emu.Fault{})
		if err != nil {
			return nil, 0, err
		}
		stations = append(stations, t)
		wg.Add(1)
		go func(i int, t emu.Transport) {
			defer wg.Done()
			defer t.Close()
			stationErrs[i] = emu.RunStation(t, stationTimeout)
		}(i, t)
	}
	tr := &emuTracer{}
	links := make([]emu.Transport, emuStations)
	raw := make([]emu.Transport, emuStations)
	for i := range links {
		t, err := ln.Accept(stationTimeout)
		if err != nil {
			return nil, 0, fmt.Errorf("accepting station %d: %w", i, err)
		}
		raw[i] = t
		links[i] = &tracedLink{Transport: t, tr: tr, index: i, last: i == emuStations-1}
	}
	defer func() {
		for _, t := range raw {
			t.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), emuRunTimeout)
	t0 := time.Now()
	res, err := emu.Coordinate(ctx, e.cfg, links)
	wall := time.Since(t0)
	cancel()
	spans.add("emu.Coordinate", rep, t0, t0.Add(wall))
	if err != nil {
		return nil, 0, err
	}
	// Let the final Done frames be acknowledged before closing, as
	// emu.Run does.
	deadline := time.Now().Add(2 * time.Second)
	for _, t := range raw {
		for t.Stats().SendQueue > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}
	wg.Wait()
	for i, err := range stationErrs {
		if err != nil {
			return nil, 0, fmt.Errorf("station %d: %w", i, err)
		}
	}
	if err := e.verify(res); err != nil {
		return nil, 0, err
	}

	vals := map[string]float64{
		"emu.send_s":       tr.send.Seconds(),
		"emu.recv_wait_s":  tr.recv.Seconds(),
		"emu.coord_self_s": (wall - tr.send - tr.recv).Seconds(),
	}
	var frames, bytesSent, segs, retrans, dups uint64
	for _, t := range raw {
		s := t.Stats()
		frames += s.FramesSent
		bytesSent += s.BytesSent
		segs += s.SegsSent
		retrans += s.Retransmits
		dups += s.DupSegs
	}
	for _, t := range stations {
		s := t.Stats()
		retrans += s.Retransmits
		dups += s.DupSegs
	}
	vals["emu.frames_sent"] = float64(frames)
	vals["emu.bytes_sent"] = float64(bytesSent)
	if frames > 0 {
		vals["emu.segs_per_frame"] = float64(segs) / float64(frames)
	}
	vals["emu.retransmits"] = float64(retrans)
	vals["emu.dup_segs"] = float64(dups)
	if n := len(tr.rtts); n > 0 {
		sort.Slice(tr.rtts, func(i, j int) bool { return tr.rtts[i] < tr.rtts[j] })
		vals["emu.slot_rtt_p50_us"] = float64(tr.rtts[n/2].Nanoseconds()) / 1e3
		vals["emu.slot_rtt_p99_us"] = float64(tr.rtts[n*99/100].Nanoseconds()) / 1e3
		vals["emu.slot_rtt_samples"] = float64(n)
	}

	t1 := time.Now()
	enc, dec, err := replayCodec(tr.frames)
	spans.add("emu.codec_replay", rep, t1, time.Now())
	if err != nil {
		return nil, 0, err
	}
	vals["emu.frame_encode_ns"] = enc
	vals["emu.frame_decode_ns"] = dec
	return vals, wall, nil
}

// emuTracer accumulates the coordinator's transport calls.  Coordinate
// calls its links from one goroutine, so it needs no lock.
type emuTracer struct {
	send, recv time.Duration
	slotStart  time.Time
	rtts       []time.Duration // per slot: first Begin sent to last Report received
	frames     []*emu.Frame    // every frame the coordinator sent or received
}

// tracedLink is one coordinator-side link with its Send and Recv timed.
type tracedLink struct {
	emu.Transport
	tr    *emuTracer
	index int
	last  bool // the last station: its Report closes the slot barrier
}

func (l *tracedLink) Send(f *emu.Frame) error {
	t0 := time.Now()
	err := l.Transport.Send(f)
	l.tr.send += time.Since(t0)
	if f.Type == emu.FrameBegin && l.index == 0 {
		l.tr.slotStart = t0
	}
	// The coordinator reuses the medium's event storage for Feedback
	// frames, so keep a copy.
	c := *f
	c.Txs = append([]channel.PacketID(nil), f.Txs...)
	c.Blob = append([]byte(nil), f.Blob...)
	l.tr.frames = append(l.tr.frames, &c)
	return err
}

func (l *tracedLink) Recv(timeout time.Duration) (*emu.Frame, error) {
	t0 := time.Now()
	f, err := l.Transport.Recv(timeout)
	now := time.Now()
	l.tr.recv += now.Sub(t0)
	if err == nil {
		if f.Type == emu.FrameReport && l.last {
			l.tr.rtts = append(l.tr.rtts, now.Sub(l.tr.slotStart))
		}
		l.tr.frames = append(l.tr.frames, f)
	}
	return f, err
}

// replayCodec times Frame.Append and Frame.Decode over the captured
// frames and checks that every frame survives the round trip.  It
// returns the median pass's nanoseconds per frame for each direction.
func replayCodec(frames []*emu.Frame) (encNs, decNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, fmt.Errorf("codec replay: no frames captured")
	}
	enc := make([][]byte, len(frames))
	for i, f := range frames {
		enc[i] = f.Append(nil)
	}
	var g emu.Frame
	for i, b := range enc {
		if err := g.Decode(b); err != nil {
			return 0, 0, fmt.Errorf("codec replay: frame %d: %w", i, err)
		}
		if !bytes.Equal(g.Append(nil), b) {
			return 0, 0, fmt.Errorf("codec replay: frame %d (%s) changed in the round trip", i, frames[i].Type)
		}
	}
	n := float64(len(frames))
	var encs, decs []float64
	buf := make([]byte, 0, 4096)
	for p := 0; p < codecPasses; p++ {
		t := time.Now()
		for _, f := range frames {
			buf = f.Append(buf[:0])
		}
		encs = append(encs, float64(time.Since(t).Nanoseconds())/n)
		t = time.Now()
		for _, b := range enc {
			_ = g.Decode(b)
		}
		decs = append(decs, float64(time.Since(t).Nanoseconds())/n)
	}
	return median(encs), median(decs), nil
}
