package emu

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
)

// frameCases is one frame of every type, and of every part combination
// of Begin and Report, with representative field use.
func frameCases() []Frame {
	return []Frame{
		{Type: FrameHello},
		{Type: FrameConfig, Blob: []byte(`{"protocol":"dba","kappa":8}`)},
		{Type: FrameBegin, HasSlot: true, Slot: 0},
		{Type: FrameBegin, HasSlot: true, Slot: 7, InjFirst: 120, InjN: 3},
		{Type: FrameBegin, HasPrev: true, Prev: 6, Silent: true, HasSlot: true, Slot: 7},
		{Type: FrameBegin, HasPrev: true, Prev: 7, Collision: true, HasSlot: true, Slot: 8, InjFirst: 123, InjN: 1},
		{Type: FrameBegin, HasPrev: true, Prev: 12, HasEvent: true, EvSlot: 12, WindowStart: 4,
			Txs: []channel.PacketID{1, 2, 3, 4}, HasSlot: true, Slot: 40},
		{Type: FrameBegin, HasPrev: true, Prev: 13, HasEvent: true, EvSlot: 13, WindowStart: 13},
		{Type: FrameBegin, HasPrev: true, Prev: 14, Silent: true},
		{Type: FrameBegin},
		// A run of plain busy slots ahead of Prev's feedback.
		{Type: FrameBegin, HasPrev: true, Prev: 20, Run: 3, HasSlot: true, Slot: 21},
		{Type: FrameBegin, HasPrev: true, Prev: 30, Run: 7, HasEvent: true, EvSlot: 30, WindowStart: 23,
			Txs: []channel.PacketID{9, 10}, HasSlot: true, Slot: 31, InjFirst: 200, InjN: 2},
		{Type: FrameBegin, HasPrev: true, Prev: 40, Run: 1, Collision: true, HasSlot: true, Slot: 41},
		{Type: FrameBegin, HasPrev: true, Prev: 50, Run: 2, Silent: true},
		{Type: FrameReport, HasSlot: true, Slot: 7, Txs: []channel.PacketID{120, 121, 5}},
		{Type: FrameReport, HasSlot: true, Slot: 9},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 42, HasSlot: true, Slot: 13,
			Txs: []channel.PacketID{8}},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 1, HasWake: true, NextWake: 99},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 0},
		{Type: FrameReport},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 5, HasWake: true, NextWake: 20, HasSlot: true, Slot: 13},
		// A coast with the opened slot's transmitters.
		{Type: FrameReport, HasSlot: true, Slot: 21, Coast: 7,
			Txs: []channel.PacketID{3, 6}},
		{Type: FrameReport, HasPrev: true, Prev: 20, Pending: 9, HasSlot: true, Slot: 21,
			Coast: 1},
		{Type: FrameReport, HasPrev: true, Prev: 20, Pending: 9, HasWake: true, NextWake: 21,
			HasSlot: true, Slot: 21, Coast: 3, Txs: []channel.PacketID{4}},
		{Type: FrameDone},
		{Type: FrameError, Blob: []byte("replica divergence after slot 3")},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range frameCases() {
		buf := f.Append(nil)
		var got Frame
		if err := got.Decode(buf); err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		// Empty lists may decode as nil or empty; compare them as equal.
		want := f
		if len(want.Txs) == 0 && len(got.Txs) == 0 {
			want.Txs, got.Txs = nil, nil
		}
		if len(want.Blob) == 0 && len(got.Blob) == 0 {
			want.Blob, got.Blob = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", f.Type, got, want)
		}
		// Appending to a non-empty prefix must not disturb the prefix.
		pre := append([]byte("prefix"), f.Append(nil)...)
		if !bytes.Equal(pre[6:], buf) {
			t.Errorf("%s: Append to prefix differs from fresh encode", f.Type)
		}
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	for _, f := range frameCases() {
		buf := f.Append(nil)
		// Every strict prefix is truncated and must fail.
		for cut := 0; cut < len(buf); cut++ {
			var got Frame
			if err := got.Decode(buf[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes decoded", f.Type, cut, len(buf))
			}
		}
		// Trailing garbage must fail.
		var got Frame
		if err := got.Decode(append(append([]byte{}, buf...), 0xEE)); err == nil {
			t.Fatalf("%s: trailing byte accepted", f.Type)
		}
	}
	var got Frame
	if err := got.Decode([]byte{0xFF}); err == nil {
		t.Fatal("unknown frame type accepted")
	}
	if err := got.Decode(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	// Flag bits the encoder never sets must be rejected, or decode∘encode
	// would not be a fixed point: another frame type's bits, and a part's
	// bits without the part.  The flag byte follows the type byte.
	for _, c := range []struct {
		f    Frame
		bits byte
	}{
		{Frame{Type: FrameBegin}, flagCoast}, {Frame{Type: FrameBegin}, flagHasWake},
		{Frame{Type: FrameBegin}, flagSilent}, {Frame{Type: FrameBegin}, flagCollision},
		{Frame{Type: FrameBegin}, flagHasEvent}, {Frame{Type: FrameBegin}, flagRun},
		{Frame{Type: FrameBegin, HasSlot: true, Slot: 3}, flagRun},
		{Frame{Type: FrameBegin, HasPrev: true, Prev: 2}, flagCoast},
		{Frame{Type: FrameReport}, flagRun}, {Frame{Type: FrameReport}, flagSilent},
		{Frame{Type: FrameReport}, flagHasEvent}, {Frame{Type: FrameReport}, flagHasWake},
		{Frame{Type: FrameReport}, flagCoast},
		{Frame{Type: FrameReport, HasPrev: true, Prev: 2}, flagCoast},
		{Frame{Type: FrameReport, HasSlot: true, Slot: 3}, flagHasWake},
		{Frame{Type: FrameReport, HasSlot: true, Slot: 3}, flagRun},
	} {
		buf := c.f.Append(nil)
		buf[1] |= c.bits
		if err := got.Decode(buf); err == nil {
			t.Fatalf("%s: flag bits %#x accepted", c.f.about(), c.bits)
		}
	}
	// Run and coast came with coasting.  A build from before them knew
	// only bits 0–5 and rejects any other as an unknown flag, so a frame
	// that carries either fails loudly there instead of being misread.
	if preCoast := byte(flagPrev | flagSlot | flagSilent | flagCollision | flagHasEvent | flagHasWake); (flagRun|flagCoast)&preCoast != 0 {
		t.Fatal("the run or coast flag reuses a bit older builds decode")
	}
	// A run or a coast must count at least one slot: the encoder writes
	// neither otherwise.
	for _, n := range []int64{0, -3} {
		run := appendI64(appendI64([]byte{byte(FrameBegin), flagPrev | flagRun}, n), 9)
		coast := appendU32(appendI64(appendI64([]byte{byte(FrameReport), flagSlot | flagCoast}, 5), n), 0)
		for _, buf := range [][]byte{run, coast} {
			if err := got.Decode(buf); err == nil || !strings.Contains(err.Error(), "not positive") {
				t.Fatalf("% x: err = %v, want a count of %d slots refused", buf, err, n)
			}
		}
	}
	// Frame types of the two-round-trip barrier are gone: they must fail
	// as unknown, not decode as one of today's frames.
	for typ := byte(3); typ <= 6; typ++ {
		if err := got.Decode([]byte{typ, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil ||
			!strings.Contains(err.Error(), "unknown frame type") {
			t.Fatalf("retired frame type %d: err = %v, want unknown frame type", typ, err)
		}
	}
	// A hostile list length must be rejected before allocation.
	hostile := []byte{byte(FrameReport), flagSlot}
	hostile = appendI64(hostile, 1)
	hostile = appendU32(hostile, 1<<31)
	if err := got.Decode(hostile); err == nil {
		t.Fatal("hostile list length accepted")
	}
}

// FuzzFrameDecode asserts the decoder never panics and that every frame
// it accepts re-encodes to the same bytes (decode∘encode fixed point).
func FuzzFrameDecode(f *testing.F) {
	for _, c := range frameCases() {
		f.Add(c.Append(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		var fr Frame
		if err := fr.Decode(b); err != nil {
			return
		}
		if got := fr.Append(nil); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", b, got)
		}
	})
}

// captureLink keeps a copy of every frame the coordinator sends or
// receives on one link.  Coordinate calls its links from one goroutine.
type captureLink struct {
	Transport
	frames *[]Frame
}

func (c *captureLink) Send(f *Frame) error {
	c.keep(f)
	return c.Transport.Send(f)
}

func (c *captureLink) Recv(timeout time.Duration) (*Frame, error) {
	f, err := c.Transport.Recv(timeout)
	if err == nil {
		c.keep(f)
	}
	return f, err
}

func (c *captureLink) keep(f *Frame) {
	g := *f
	g.Txs, g.Blob = slices.Clone(f.Txs), slices.Clone(f.Blob)
	*c.frames = append(*c.frames, g)
}

// BenchmarkFrameCodec encodes and decodes every frame an in-proc
// two-station DBA κ=8 batch moves, and reports the cost per frame and
// per stepped slot.  Coasting sends fewer, fuller frames, so the figure
// that tracks the work of a run is the per-slot one.
func BenchmarkFrameCodec(b *testing.B) {
	cfg := Config{
		Protocol: "dba", Medium: "coded", Kappa: 8,
		Arrival: "batch", BatchN: 2000, Horizon: 1, Drain: true,
		Seed: 7, Stations: 2,
	}
	var frames []Frame
	if _, err := coordinateWrapped(b, cfg, func(_ int, l Transport) Transport {
		return &captureLink{Transport: l, frames: &frames}
	}); err != nil {
		b.Fatal(err)
	}
	stepped := countSlots(b, cfg).stepped
	var buf []byte
	var g Frame
	for b.Loop() {
		for i := range frames {
			buf = frames[i].Append(buf[:0])
			if err := g.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(len(frames)), "ns/frame")
	b.ReportMetric(ns/float64(stepped), "ns/slot")
	b.ReportMetric(float64(len(frames))/float64(stepped), "frames/slot")
}
