package medium

import (
	"testing"

	"repro/internal/channel"
)

// FuzzCaptureAgainstReference drives a random transmitter schedule,
// decoded with the same encoding as the channel package's fuzz target,
// through the optimized Capture medium and the naive CaptureReference
// oracle, asserting identical classes, events, feedback, and stats on
// every slot.  A repeater twin replaying destroyed slots via StepRepeat
// is cross-checked alongside.
//
// Schedule encoding: byte 0 picks κ ∈ [1, 8]; each following byte is
// one slot, low nibble the transmitter count n ∈ [0, 15] and high
// nibble an offset into a small packet pool (distinct IDs per slot, so
// the duplicate panic never fires here — it has its own tests).
func FuzzCaptureAgainstReference(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0x02, 0x13, 0x00, 0x21, 0x0f})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x01})
	f.Add([]byte{0x07, 0x0f, 0x12, 0x31, 0x02, 0x00, 0x42, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		kappa := 1 + int(data[0]%8)
		fast := NewCapture(kappa)
		repeat := NewCapture(kappa)
		ref := NewCaptureReference(kappa)

		const poolSize = 24
		var fbFast, fbRef channel.Feedback
		prevBad := false
		txs := make([]channel.PacketID, 0, 16)
		for slot, b := range data[1:] {
			now := int64(slot)
			n := int(b & 0x0f)
			off := int(b >> 4)
			txs = txs[:0]
			for i := 0; i < n; i++ {
				txs = append(txs, channel.PacketID((off+i)%poolSize))
			}
			fc, fe := fast.Step(now, txs)
			rc, re := ref.Step(now, txs)
			if fc != rc {
				t.Fatalf("slot %d (%v): class %v vs reference %v", now, txs, fc, rc)
			}
			if (fe == nil) != (re == nil) {
				t.Fatalf("slot %d (%v): event %v vs reference %v", now, txs, fe, re)
			}
			if fe != nil {
				if fe.Slot != re.Slot || fe.WindowStart != re.WindowStart ||
					len(fe.Packets) != len(re.Packets) {
					t.Fatalf("slot %d: event %+v vs reference %+v", now, fe, re)
				}
				for i := range fe.Packets {
					if fe.Packets[i] != re.Packets[i] {
						t.Fatalf("slot %d: event delivers %v vs reference %v", now, fe.Packets, re.Packets)
					}
				}
			}
			fast.Feedback(&fbFast)
			ref.Feedback(&fbRef)
			if fbFast.Slot != fbRef.Slot || fbFast.Silent != fbRef.Silent ||
				fbFast.Collision != fbRef.Collision ||
				(fbFast.Event == nil) != (fbRef.Event == nil) {
				t.Fatalf("slot %d: feedback %+v vs reference %+v", now, fbFast, fbRef)
			}

			// Repeater twin: a destroyed slot directly following another
			// replays through StepRepeat (the engine coasts bad slots this
			// way) and must keep stats and feedback aligned with a re-step.
			if fc == channel.Bad && prevBad {
				if !repeat.StepRepeat(now) {
					t.Fatalf("slot %d: StepRepeat refused after bad slot", now)
				}
			} else {
				repeat.Step(now, txs)
			}
			prevBad = fc == channel.Bad
		}
		if fast.Stats() != ref.Stats() {
			t.Fatalf("stats %+v, reference %+v", fast.Stats(), ref.Stats())
		}
		if repeat.Stats() != ref.Stats() {
			t.Fatalf("repeater stats %+v, reference %+v", repeat.Stats(), ref.Stats())
		}
	})
}
