package channel

import (
	"testing"

	"repro/internal/rng"
)

// permute returns txs reordered by a seeded Fisher–Yates shuffle.  The
// shuffle seed is independent of the channel under test, so the two
// lockstep channels in the order tests see the same multiset of
// transmitters in different sequences.
func permute(g *rng.Rand, txs []PacketID) []PacketID {
	out := append([]PacketID(nil), txs...)
	for i := len(out) - 1; i > 0; i-- {
		j := int(g.Uint64n(uint64(i + 1)))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// stepEqual drives one slot through both channels — canonical order
// into ref, permuted order into alt — and fails if the slot class, the
// decoding event, or the running stats diverge: a slot's outcome
// depends on the set of transmitters, never on the order a protocol
// happens to list them in.
func stepEqual(t *testing.T, now int64, ref, alt *Channel, canonical, permuted []PacketID) {
	t.Helper()
	rc, re := ref.Step(now, canonical)
	ac, ae := alt.Step(now, permuted)
	if rc != ac {
		t.Fatalf("slot %d: class %v (canonical) vs %v (permuted %v)", now, rc, ac, permuted)
	}
	if (re == nil) != (ae == nil) {
		t.Fatalf("slot %d: event %v (canonical) vs %v (permuted)", now, re, ae)
	}
	if re != nil {
		if re.Slot != ae.Slot || re.WindowStart != ae.WindowStart || len(re.Packets) != len(ae.Packets) {
			t.Fatalf("slot %d: event %+v (canonical) vs %+v (permuted)", now, re, ae)
		}
		for i := range re.Packets {
			if re.Packets[i] != ae.Packets[i] {
				t.Fatalf("slot %d: event delivers %v (canonical) vs %v (permuted)", now, re.Packets, ae.Packets)
			}
		}
	}
	if ref.Stats() != alt.Stats() {
		t.Fatalf("slot %d: stats %+v (canonical) vs %+v (permuted)", now, ref.Stats(), alt.Stats())
	}
}

// TestStepOrderInsensitive runs a deterministic schedule that spans
// every slot class — silence, singletons, staircases building decoding
// events, overfull bad slots, revisited IDs — through two lockstep
// channels, permuting the transmitter list handed to one of them each
// slot.
func TestStepOrderInsensitive(t *testing.T) {
	for _, kappa := range []int{1, 4, 8} {
		ref, alt := New(kappa, 0), New(kappa, 0)
		g := rng.New(uint64(0xa11ce + kappa))
		sched := rng.New(uint64(kappa) * 977)
		txs := make([]PacketID, 0, 32)
		for now := int64(0); now < 400; now++ {
			txs = txs[:0]
			// Mix empty slots, good-sized groups, and overfull bursts
			// from a small ID pool so windows and last occurrences
			// interact across slots.
			n := int(sched.Uint64n(uint64(2*kappa + 4)))
			if sched.Uint64n(4) == 0 {
				n = 0
			}
			off := int(sched.Uint64n(24))
			for i := 0; i < n; i++ {
				txs = append(txs, PacketID((off+i)%24))
			}
			stepEqual(t, now, ref, alt, txs, permute(g, txs))
		}
	}
}

// FuzzStepOrderInsensitive is the fuzzing face of the same invariant,
// reusing FuzzChannelAgainstReference's schedule encoding: byte 0 picks
// κ, byte 1 the window cap, byte 2 seeds the permutation, and each
// following byte is one slot (low nibble = transmitter count, high
// nibble = offset into a 24-ID pool).
func FuzzStepOrderInsensitive(f *testing.F) {
	f.Add([]byte{0x03, 0x08, 0x01, 0x02, 0x13, 0x00, 0x21, 0x01})
	f.Add([]byte{0x07, 0x00, 0xff, 0x0f, 0x12, 0x31, 0x02, 0x00, 0x42, 0x05})
	f.Add([]byte{0x01, 0x02, 0x9e, 0x22, 0x22, 0x22, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		kappa := 1 + int(data[0]%8)
		maxWindow := int(data[1] % 16)
		ref, alt := New(kappa, maxWindow), New(kappa, maxWindow)
		g := rng.New(uint64(data[2]) + 1)
		txs := make([]PacketID, 0, 16)
		for now, b := range data[3:] {
			n := int(b & 0x0f)
			off := int(b >> 4)
			txs = txs[:0]
			for i := 0; i < n; i++ {
				txs = append(txs, PacketID((off+i)%24))
			}
			stepEqual(t, int64(now), ref, alt, txs, permute(g, txs))
		}
	})
}
