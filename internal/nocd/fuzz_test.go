package nocd

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/rng"
)

// FuzzSchemeOrderInsensitivity drives two same-seed scheme instances
// through a fuzz-derived slot sequence, feeding one the slot's delivery
// event with its packet list rotated and reversed, and asserts the two
// never diverge: a no-CD station's behavior may not depend on the order
// a medium happens to list the slot's decoded packets (which in turn
// derives from transmitter order).  Byte 0 picks the scheme and batch
// size; each following byte is one slot — the low nibble picks how many
// of the slot's sampled transmitters get delivered, the high nibble the
// rotation applied to the permuted instance's event list.
func FuzzSchemeOrderInsensitivity(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0xff, 0x40, 0x02})
	f.Add([]byte{0x12, 0x00, 0x00, 0xf7, 0x31, 0x55})
	f.Add([]byte{0x0f, 0x81, 0x18, 0xff, 0xff, 0x04, 0x92})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		build := NewUnbounded
		if data[0]&1 == 1 {
			build = NewRobust
		}
		n := 4 + int(data[0]>>1)%60
		plain := build(rng.New(77))
		perm := build(rng.New(77))

		ids := make([]channel.PacketID, n)
		for i := range ids {
			ids[i] = channel.PacketID(i * 3) // spaced, not dense
		}
		plain.Inject(0, ids)
		perm.Inject(0, ids)

		for slot, b := range data[1:] {
			now := int64(slot + 1)
			txP := plain.Transmitters(now, nil)
			txQ := perm.Transmitters(now, nil)
			if len(txP) != len(txQ) {
				t.Fatalf("slot %d: %d vs %d transmitters", now, len(txP), len(txQ))
			}
			for i := range txP {
				if txP[i] != txQ[i] {
					t.Fatalf("slot %d: transmitters diverge at %d: %v vs %v", now, i, txP, txQ)
				}
			}
			if len(txP) == 0 {
				plain.Observe(channel.Feedback{Slot: now, Silent: true})
				perm.Observe(channel.Feedback{Slot: now, Silent: true})
				continue
			}
			deliver := int(b&0x0f) % (len(txP) + 1)
			if deliver == 0 {
				// A busy slot with no deliveries: a collision.
				plain.Observe(channel.Feedback{Slot: now})
				perm.Observe(channel.Feedback{Slot: now})
				continue
			}
			pkts := append([]channel.PacketID(nil), txP[:deliver]...)
			rot := int(b>>4) % deliver
			scrambled := append([]channel.PacketID(nil), pkts[rot:]...)
			scrambled = append(scrambled, pkts[:rot]...)
			for i, j := 0, len(scrambled)-1; i < j; i, j = i+1, j-1 {
				scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
			}
			plain.Observe(channel.Feedback{Slot: now, Event: &channel.Event{
				Slot: now, WindowStart: now, Packets: pkts}})
			perm.Observe(channel.Feedback{Slot: now, Event: &channel.Event{
				Slot: now, WindowStart: now, Packets: scrambled}})
			if plain.Pending() != perm.Pending() {
				t.Fatalf("slot %d: pending diverge %d vs %d", now, plain.Pending(), perm.Pending())
			}
		}
	})
}
