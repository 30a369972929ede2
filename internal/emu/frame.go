package emu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/channel"
)

// FrameType discriminates the emulation wire protocol's frames.  Each
// slot costs two round trips per station: the coordinator opens the
// slot barrier with Begin (carrying the slot's injection broadcast),
// stations answer with their Decide (owned transmitters), the
// coordinator adjudicates the slot on the medium and broadcasts
// Feedback, and stations answer with Report (replica backlog + next
// wake) so the coordinator can fast-forward exactly as the simulator
// would.
type FrameType uint8

const (
	// FrameHello is the first frame on a connection: station → coordinator.
	FrameHello FrameType = 1 + iota
	// FrameConfig answers Hello with the station's wire configuration
	// (JSON blob: protocol, effective κ, seeds, station count and index).
	FrameConfig
	// FrameBegin opens slot Slot: stations must inject the broadcast
	// packet batch [InjFirst, InjFirst+InjN) and answer with Decide.
	FrameBegin
	// FrameDecide carries the transmitters a station owns for slot Slot.
	FrameDecide
	// FrameFeedback broadcasts what every device hears about slot Slot:
	// silence, collision, and any decoding event.
	FrameFeedback
	// FrameReport answers Feedback with the replica's post-slot backlog
	// and, when the protocol declares wake-ups, its next wake slot.
	FrameReport
	// FrameDone ends the run; stations exit cleanly.
	FrameDone
	// FrameError aborts the run, carrying a diagnostic in Blob.  Either
	// side may send it.
	FrameError
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
	case FrameDecide:
		return "decide"
	case FrameFeedback:
		return "feedback"
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
// populated fields depend on Type.  Txs doubles as the Decide
// transmitter list and the Feedback event's delivered packets.
type Frame struct {
	Type FrameType
	Slot int64

	// Begin
	InjFirst int64
	InjN     int32

	// Decide (transmitters) / Feedback (event packets)
	Txs []channel.PacketID

	// Feedback
	Silent      bool
	Collision   bool
	HasEvent    bool
	EvSlot      int64
	WindowStart int64

	// Report
	Pending  int64
	HasWake  bool
	NextWake int64

	// Config (JSON) / Error (message text)
	Blob []byte
}

// Frame flag bits (Feedback and Report).
const (
	flagSilent    = 1 << 0
	flagCollision = 1 << 1
	flagHasEvent  = 1 << 2
	flagHasWake   = 1 << 3
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
		dst = appendI64(dst, f.Slot)
		dst = appendI64(dst, f.InjFirst)
		dst = appendU32(dst, uint32(f.InjN))
	case FrameDecide:
		dst = appendI64(dst, f.Slot)
		dst = appendU32(dst, uint32(len(f.Txs)))
		for _, id := range f.Txs {
			dst = appendI64(dst, int64(id))
		}
	case FrameFeedback:
		dst = appendI64(dst, f.Slot)
		var flags byte
		if f.Silent {
			flags |= flagSilent
		}
		if f.Collision {
			flags |= flagCollision
		}
		if f.HasEvent {
			flags |= flagHasEvent
		}
		dst = append(dst, flags)
		if f.HasEvent {
			dst = appendI64(dst, f.EvSlot)
			dst = appendI64(dst, f.WindowStart)
			dst = appendU32(dst, uint32(len(f.Txs)))
			for _, id := range f.Txs {
				dst = appendI64(dst, int64(id))
			}
		}
	case FrameReport:
		dst = appendI64(dst, f.Slot)
		dst = appendI64(dst, f.Pending)
		var flags byte
		if f.HasWake {
			flags |= flagHasWake
		}
		dst = append(dst, flags)
		if f.HasWake {
			dst = appendI64(dst, f.NextWake)
		}
	default:
		panic(fmt.Sprintf("emu: encoding unknown frame type %d", f.Type))
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

// flags reads a flag byte, rejecting bits outside known: the encoder
// never sets them, so accepting one would break decode∘encode.
func (d *decoder) flags(known byte) byte {
	v := d.u8()
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
		f.Slot = d.i64()
		f.InjFirst = d.i64()
		f.InjN = int32(d.u32())
	case FrameDecide:
		f.Slot = d.i64()
		f.Txs = d.packetList()
	case FrameFeedback:
		f.Slot = d.i64()
		flags := d.flags(flagSilent | flagCollision | flagHasEvent)
		f.Silent = flags&flagSilent != 0
		f.Collision = flags&flagCollision != 0
		f.HasEvent = flags&flagHasEvent != 0
		if f.HasEvent {
			f.EvSlot = d.i64()
			f.WindowStart = d.i64()
			f.Txs = d.packetList()
		}
	case FrameReport:
		f.Slot = d.i64()
		f.Pending = d.i64()
		f.HasWake = d.flags(flagHasWake)&flagHasWake != 0
		if f.HasWake {
			f.NextWake = d.i64()
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
