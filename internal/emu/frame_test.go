package emu

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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
		{Type: FrameReport, HasSlot: true, Slot: 7, Txs: []channel.PacketID{120, 121, 5}},
		{Type: FrameReport, HasSlot: true, Slot: 9},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 42, HasSlot: true, Slot: 13,
			Txs: []channel.PacketID{8}},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 1, HasWake: true, NextWake: 99},
		{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 0},
		{Type: FrameReport},
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
	// would not be a fixed point: unknown bits, and a part's bits without
	// the part.  The flag byte follows the type byte.
	for _, c := range []struct {
		typ  FrameType
		bits byte
	}{
		{FrameBegin, 0x40}, {FrameBegin, 0x80}, {FrameBegin, flagHasWake},
		{FrameBegin, flagSilent}, {FrameBegin, flagCollision}, {FrameBegin, flagHasEvent},
		{FrameReport, 0x40}, {FrameReport, flagSilent}, {FrameReport, flagHasEvent},
		{FrameReport, flagHasWake},
	} {
		buf := (&Frame{Type: c.typ}).Append(nil)
		buf[1] |= c.bits
		if err := got.Decode(buf); err == nil {
			t.Fatalf("%s: flag bits %#x accepted", c.typ, c.bits)
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
