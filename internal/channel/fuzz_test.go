package channel

import (
	"bytes"
	"testing"
)

// FuzzChannelAgainstReference drives a random transmitter schedule,
// decoded from the fuzzer's byte stream, through both the incremental
// decoding-event detector and the brute-force Definition 1 reference,
// and asserts they observe identical slot classes, identical events
// (slot, window start, and packet sets), identical stats, and identical
// prune counts.
//
// Schedule encoding: the first two bytes pick κ ∈ [1, 8] and the window
// cap ∈ {0 (unbounded), 1..15}; each following byte is one slot, whose
// low nibble is the transmitter count n ∈ [0, 15] and high nibble an
// offset into a small packet pool, so schedules revisit the same IDs
// across slots (the case that exercises last-occurrence tracking).
func FuzzChannelAgainstReference(f *testing.F) {
	f.Add([]byte{0x03, 0x08, 0x01, 0x02, 0x13, 0x00, 0x21, 0x01})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x01})
	f.Add([]byte{0x07, 0x04, 0x0f, 0x12, 0x31, 0x02, 0x00, 0x42, 0x05})
	f.Add(bytes.Repeat([]byte{0x12, 0x01, 0x00}, 40))
	// κ=8, window cap 4: a list that record's fast path moved to a later
	// entry is then pruned by the cap (6 packets pruned).
	f.Add([]byte{0x07, 0x04, 0x06, 0x06, 0x86, 0x86, 0x86, 0x86, 0x86})
	// κ=8, window cap 4: a repeated list, then a partly overlapping one,
	// so removeMember runs on a list the fast path moved.
	f.Add([]byte{0x07, 0x04, 0x06, 0x06, 0x06, 0x16, 0x16, 0x06, 0x06})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		kappa := 1 + int(data[0]%8)
		maxWindow := int(data[1] % 16) // 0 = unbounded
		fast := New(kappa, maxWindow)
		ref := NewReference(kappa, maxWindow)

		const poolSize = 24
		var wantSilent, wantGood, wantBad, wantEvents, wantDelivered int64
		txs := make([]PacketID, 0, 16)
		for now, b := range data[2:] {
			n := int(b & 0x0f)
			off := int(b >> 4)
			txs = txs[:0]
			for i := 0; i < n; i++ {
				txs = append(txs, PacketID((off+i)%poolSize))
			}
			fc, fe := fast.Step(int64(now), txs)
			rc, re := ref.Step(int64(now), txs)
			if fc != rc {
				t.Fatalf("slot %d (%v): class %v vs reference %v", now, txs, fc, rc)
			}
			switch fc {
			case Silent:
				wantSilent++
			case Good:
				wantGood++
			case Bad:
				wantBad++
			}
			if (fe == nil) != (re == nil) {
				t.Fatalf("slot %d (%v): event %v vs reference %v", now, txs, fe, re)
			}
			if fe != nil {
				if fe.Slot != re.Slot || fe.WindowStart != re.WindowStart {
					t.Fatalf("slot %d: event bounds [%d,%d] vs reference [%d,%d]",
						now, fe.WindowStart, fe.Slot, re.WindowStart, re.Slot)
				}
				if len(fe.Packets) != len(re.Packets) {
					t.Fatalf("slot %d: event delivers %v vs reference %v", now, fe.Packets, re.Packets)
				}
				for i := range fe.Packets {
					if fe.Packets[i] != re.Packets[i] {
						t.Fatalf("slot %d: event delivers %v vs reference %v", now, fe.Packets, re.Packets)
					}
				}
				wantEvents++
				wantDelivered += int64(len(fe.Packets))
			}
		}
		st := fast.Stats()
		if st.SilentSlots != wantSilent || st.GoodSlots != wantGood || st.BadSlots != wantBad ||
			st.Events != wantEvents || st.Delivered != wantDelivered {
			t.Fatalf("stats %+v, want silent=%d good=%d bad=%d events=%d delivered=%d",
				st, wantSilent, wantGood, wantBad, wantEvents, wantDelivered)
		}
		if st.PrunedPackets != ref.Pruned() {
			t.Fatalf("pruned %d, reference pruned %d", st.PrunedPackets, ref.Pruned())
		}
	})
}
