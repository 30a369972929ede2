package emu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/channel"
)

// FrameType discriminates the emulation wire protocol's frames.  Each
// opened slot costs one round trip per station: the coordinator's
// Begin carries the feedback of the slots stepped since the last one
// and opens the next slot with its injection batch; each station
// answers with one Report carrying its replica's backlog and next wake
// after those slots, and the transmitters it owns in the opened slot
// with how long its replica promises to keep them (its coast).
type FrameType uint8

const (
	// FrameHello is the first frame on a connection: station → coordinator.
	FrameHello FrameType = 1
	// FrameConfig answers Hello with the station's wire configuration
	// (JSON blob: protocol, effective κ, seeds, station count and index).
	FrameConfig FrameType = 2
	// Types 3–6 were the two-round-trip slot barrier's Begin, Decide,
	// Feedback and Report.  No frame uses them, so a slot frame from a
	// build that spoke that barrier fails as an unknown type.

	// FrameDone ends the run; stations exit cleanly.
	FrameDone FrameType = 7
	// FrameError aborts the run, carrying a diagnostic in Blob.  Either
	// side may send it.
	FrameError FrameType = 8
	// FrameBegin (coordinator → station) has two optional parts: the
	// feedback of slot Prev, preceded by Run plain busy slots (HasPrev),
	// and the opening of slot Slot with the packet batch
	// [InjFirst, InjFirst+InjN) to inject (HasSlot).
	FrameBegin FrameType = 9
	// FrameReport (station → coordinator) answers Begin part for part:
	// the replica's backlog and next wake after slot Prev (HasPrev), and
	// the transmitters the station owns in slot Slot with the replica's
	// coast, if it has one (HasSlot).
	FrameReport FrameType = 10
)

// String names the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameConfig:
		return "config"
	case FrameBegin:
		return "begin"
	case FrameReport:
		return "report"
	case FrameDone:
		return "done"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// Frame is one emulation protocol message — a tagged union whose
// populated fields depend on Type and, for Begin and Report, on which
// parts the frame carries.  Txs is the only list: the feedback event's
// delivered packets in a Begin, the owned transmitters in a Report.
type Frame struct {
	Type FrameType

	// HasPrev marks the part about the previous stepped slot Prev.
	HasPrev bool
	Prev    int64
	// HasSlot marks the part about the opened slot Slot.
	HasSlot bool
	Slot    int64

	// Begin, slot part
	InjFirst int64
	InjN     int32

	// Begin, feedback part.  Run counts the slots Prev-Run … Prev-1
	// whose feedback comes in bulk: each was heard busy, with no event
	// and no collision, and replicas observe them so before Prev's own
	// feedback.
	Run         int64
	Silent      bool
	Collision   bool
	HasEvent    bool
	EvSlot      int64
	WindowStart int64

	// Report, backlog part
	Pending  int64
	HasWake  bool
	NextWake int64

	// Report, slot part.  Coast counts the slots Slot+1 … Slot+Coast the
	// replica's protocol.Coaster answer for Slot covers (0: none).
	Coast int64

	// Begin: event packets / Report: owned transmitters
	Txs []channel.PacketID

	// Config (JSON) / Error (message text)
	Blob []byte
}

// about names a Begin's or Report's slots, for diagnostics.
func (f *Frame) about() string {
	s := f.Type.String()
	if f.HasPrev {
		s += fmt.Sprintf(" after slot %d", f.Prev)
	}
	if f.HasSlot {
		s += fmt.Sprintf(" for slot %d", f.Slot)
	}
	return s
}

// Frame flag bits (Begin and Report).  Silent, collision, event and run
// are feedback bits, wake is a backlog bit and coast a slot bit: each
// is set only with its part's bit, and the decoder rejects it
// otherwise, so decode∘encode stays a fixed point.  Run and coast came
// with coasting; a build from before it rejects them as unknown flags.
const (
	flagPrev      = 1 << 0
	flagSlot      = 1 << 1
	flagSilent    = 1 << 2
	flagCollision = 1 << 3
	flagHasEvent  = 1 << 4
	flagHasWake   = 1 << 5
	flagRun       = 1 << 6
	flagCoast     = 1 << 7
)

// maxFrameList bounds decoded list and blob lengths: a corrupt or
// hostile length prefix must not drive an allocation.  2^26 packets is
// far above any slot's transmitter count at feasible scales.
const maxFrameList = 1 << 26

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// Append encodes the frame, appending to dst (which may be nil).
func (f *Frame) Append(dst []byte) []byte {
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case FrameHello, FrameDone:
		// type byte only
	case FrameConfig, FrameError:
		dst = appendU32(dst, uint32(len(f.Blob)))
		dst = append(dst, f.Blob...)
	case FrameBegin:
		flags := bit(f.HasPrev, flagPrev) | bit(f.HasSlot, flagSlot)
		if f.HasPrev {
			flags |= bit(f.Silent, flagSilent) | bit(f.Collision, flagCollision) |
				bit(f.HasEvent, flagHasEvent) | bit(f.Run > 0, flagRun)
		}
		dst = append(dst, flags)
		if f.HasPrev {
			if f.Run > 0 {
				dst = appendI64(dst, f.Run)
			}
			dst = appendI64(dst, f.Prev)
			if f.HasEvent {
				dst = appendI64(dst, f.EvSlot)
				dst = appendI64(dst, f.WindowStart)
				dst = appendPackets(dst, f.Txs)
			}
		}
		if f.HasSlot {
			dst = appendI64(dst, f.Slot)
			dst = appendI64(dst, f.InjFirst)
			dst = appendU32(dst, uint32(f.InjN))
		}
	case FrameReport:
		flags := bit(f.HasPrev, flagPrev) | bit(f.HasSlot, flagSlot)
		if f.HasPrev {
			flags |= bit(f.HasWake, flagHasWake)
		}
		if f.HasSlot {
			flags |= bit(f.Coast > 0, flagCoast)
		}
		dst = append(dst, flags)
		if f.HasPrev {
			dst = appendI64(dst, f.Prev)
			dst = appendI64(dst, f.Pending)
			if f.HasWake {
				dst = appendI64(dst, f.NextWake)
			}
		}
		if f.HasSlot {
			dst = appendI64(dst, f.Slot)
			if f.Coast > 0 {
				dst = appendI64(dst, f.Coast)
			}
			dst = appendPackets(dst, f.Txs)
		}
	default:
		panic(fmt.Sprintf("emu: encoding unknown frame type %d", f.Type))
	}
	return dst
}

// bit is b when on, else 0.
func bit(on bool, b byte) byte {
	if on {
		return b
	}
	return 0
}

func appendPackets(dst []byte, ids []channel.PacketID) []byte {
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendI64(dst, int64(id))
	}
	return dst
}

// decoder walks an encoded frame with bounds checking.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) i64() int64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// flags reads a Begin's or Report's flag byte, rejecting bits the
// encoder never sets: prevBits (the frame type's feedback or backlog
// bits) are valid only with flagPrev, and slotBits only with flagSlot.
// Accepting one would break decode∘encode.
func (d *decoder) flags(prevBits, slotBits byte) byte {
	v := d.u8()
	known := byte(flagPrev | flagSlot)
	if v&flagPrev != 0 {
		known |= prevBits
	}
	if v&flagSlot != 0 {
		known |= slotBits
	}
	if d.err == nil && v&^known != 0 {
		d.err = fmt.Errorf("emu: unknown frame flags %#x", v&^known)
	}
	return v
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("emu: truncated frame")
	}
}

// Decode parses an encoded frame into f, overwriting every field.  The
// Txs and Blob fields are freshly allocated (frames may outlive the
// receive buffer).
func (f *Frame) Decode(b []byte) error {
	*f = Frame{}
	d := decoder{b: b}
	f.Type = FrameType(d.u8())
	switch f.Type {
	case FrameHello, FrameDone:
	case FrameConfig, FrameError:
		n := d.u32()
		if d.err == nil && (n > maxFrameList || int(n) > len(d.b)) {
			return fmt.Errorf("emu: frame blob length %d exceeds payload", n)
		}
		if d.err == nil {
			f.Blob = append([]byte(nil), d.b[:n]...)
			d.b = d.b[n:]
		}
	case FrameBegin:
		flags := d.flags(flagSilent|flagCollision|flagHasEvent|flagRun, 0)
		f.HasPrev = flags&flagPrev != 0
		f.HasSlot = flags&flagSlot != 0
		if f.HasPrev {
			if flags&flagRun != 0 {
				// The encoder flags only a positive run.
				if f.Run = d.i64(); d.err == nil && f.Run <= 0 {
					return fmt.Errorf("emu: begin run of %d slots is not positive", f.Run)
				}
			}
			f.Prev = d.i64()
			f.Silent = flags&flagSilent != 0
			f.Collision = flags&flagCollision != 0
			f.HasEvent = flags&flagHasEvent != 0
			if f.HasEvent {
				f.EvSlot = d.i64()
				f.WindowStart = d.i64()
				f.Txs = d.packetList()
			}
		}
		if f.HasSlot {
			f.Slot = d.i64()
			f.InjFirst = d.i64()
			f.InjN = int32(d.u32())
		}
	case FrameReport:
		flags := d.flags(flagHasWake, flagCoast)
		f.HasPrev = flags&flagPrev != 0
		f.HasSlot = flags&flagSlot != 0
		if f.HasPrev {
			f.Prev = d.i64()
			f.Pending = d.i64()
			f.HasWake = flags&flagHasWake != 0
			if f.HasWake {
				f.NextWake = d.i64()
			}
		}
		if f.HasSlot {
			f.Slot = d.i64()
			if flags&flagCoast != 0 {
				// The encoder flags only a positive coast.
				if f.Coast = d.i64(); d.err == nil && f.Coast <= 0 {
					return fmt.Errorf("emu: report coast of %d slots is not positive", f.Coast)
				}
			}
			f.Txs = d.packetList()
		}
	default:
		return fmt.Errorf("emu: unknown frame type %d", f.Type)
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("emu: %d trailing bytes after %s frame", len(d.b), f.Type)
	}
	return nil
}

func (d *decoder) packetList() []channel.PacketID {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxFrameList || int(n)*8 > len(d.b) {
		d.err = fmt.Errorf("emu: frame list length %d exceeds payload", n)
		return nil
	}
	ids := make([]channel.PacketID, n)
	for i := range ids {
		ids[i] = channel.PacketID(d.i64())
	}
	return ids
}
