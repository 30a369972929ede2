package channel

import (
	"fmt"
	"testing"
)

// chunkify splits txs into nc chunks whose sizes follow a deterministic
// uneven pattern (including empty chunks), the ordered chunks
// StepSharded takes.  The concatenation in chunk order always equals
// txs.
func chunkify(txs []PacketID, nc int, skew int) [][]PacketID {
	chunks := make([][]PacketID, nc)
	i := 0
	for c := 0; c < nc; c++ {
		n := (len(txs) - i) / (nc - c)
		// Skew chunk sizes so boundaries move across calls: some chunks
		// empty, some oversized.
		if c%3 == skew%3 && n > 0 {
			n += min(len(txs)-i-n*(nc-c-1), n)
		}
		if c == nc-1 {
			n = len(txs) - i
		}
		chunks[c] = txs[i : i+n]
		i += n
	}
	return chunks
}

// stepBothEqual drives one slot through ref.Step(flat) and
// shard.StepSharded(chunks) and fails on any observable divergence.
func stepBothEqual(t *testing.T, now int64, ref, shard *Channel, txs []PacketID, chunks [][]PacketID) {
	t.Helper()
	rc, re := ref.Step(now, txs)
	sc, se := shard.StepSharded(now, chunks)
	if rc != sc {
		t.Fatalf("slot %d (%v): class %v (Step) vs %v (StepSharded)", now, txs, rc, sc)
	}
	if (re == nil) != (se == nil) {
		t.Fatalf("slot %d (%v): event %v (Step) vs %v (StepSharded)", now, txs, re, se)
	}
	if re != nil {
		if re.Slot != se.Slot || re.WindowStart != se.WindowStart || len(re.Packets) != len(se.Packets) {
			t.Fatalf("slot %d: event %+v (Step) vs %+v (StepSharded)", now, re, se)
		}
		for i := range re.Packets {
			if re.Packets[i] != se.Packets[i] {
				t.Fatalf("slot %d: event delivers %v (Step) vs %v (StepSharded)", now, re.Packets, se.Packets)
			}
		}
	}
	if ref.Stats() != shard.Stats() {
		t.Fatalf("slot %d: stats %+v (Step) vs %+v (StepSharded)", now, ref.Stats(), shard.Stats())
	}
}

// FuzzStepShardedAgainstStep pins StepSharded's contract: feeding
// ordered chunks through StepSharded is observably identical to feeding
// their concatenation through Step — for any chunk boundaries, and
// schedules spanning silence, decoding events, and overfull bad slots.
// Encoding matches FuzzChannelAgainstReference: byte 0 picks κ, byte 1
// the window cap, byte 2 the chunk count and skew; each following byte
// is one slot.
func FuzzStepShardedAgainstStep(f *testing.F) {
	f.Add([]byte{0x03, 0x08, 0x05, 0x02, 0x13, 0x00, 0x21, 0x01})
	f.Add([]byte{0x00, 0x00, 0x01, 0x01, 0x01})
	f.Add([]byte{0x07, 0x04, 0xff, 0x0f, 0x12, 0x31, 0x02, 0x00, 0x42, 0x05})
	f.Add([]byte{0x01, 0x02, 0x10, 0x2f, 0x2f, 0x2f, 0x2f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		kappa := 1 + int(data[0]%8)
		maxWindow := int(data[1] % 16)
		nc := 1 + int(data[2]&0x0f)
		skew := int(data[2] >> 4)
		ref := New(kappa, maxWindow)
		shard := New(kappa, maxWindow)
		txs := make([]PacketID, 0, 16)
		for now, b := range data[3:] {
			n := int(b & 0x0f)
			off := int(b >> 4)
			txs = txs[:0]
			for i := 0; i < n; i++ {
				txs = append(txs, PacketID((off+i)%24))
			}
			stepBothEqual(t, int64(now), ref, shard, txs, chunkify(txs, nc, skew+now))
		}
	})
}

// TestStepShardedSparseIDs exercises the arena-backed occupancy index
// with IDs far outside the dense fuzz pool — huge positive, negative,
// and page-boundary-straddling values — through both step paths.
func TestStepShardedSparseIDs(t *testing.T) {
	ids := []PacketID{
		-1 << 40, -513, -512, -1, 0, 1, 511, 512, 1 << 20, 1<<40 + 7, 1<<62 - 1,
	}
	ref := New(4, 0)
	shard := New(4, 0)
	now := int64(0)
	// Overfull slot: all sparse IDs at once (bad), then replay, then
	// drip them in singletons so decoding events deliver them.
	all := append([]PacketID(nil), ids...)
	stepBothEqual(t, now, ref, shard, all, chunkify(all, 3, 1))
	now++
	for _, id := range ids {
		one := []PacketID{id}
		stepBothEqual(t, now, ref, shard, one, chunkify(one, 2, 0))
		now++
	}
	if ref.Stats().Delivered == 0 {
		t.Fatal("schedule delivered nothing; sparse-ID coverage is vacuous")
	}
	if got := shard.PendingPackets(); got != ref.PendingPackets() {
		t.Fatalf("pending %d (StepSharded) vs %d (Step)", got, ref.PendingPackets())
	}
}

// TestStepRepeatMatchesStep pins the O(1) bad-slot replay: after a Bad
// slot, StepRepeat must be observably identical to a full Step with the
// same transmitter multiset, and a subsequent schedule must play out
// identically on both channels.
func TestStepRepeatMatchesStep(t *testing.T) {
	ref := New(2, 0)
	rep := New(2, 0)
	bad := []PacketID{10, 11, 12} // 3 > κ=2: Bad
	for now := int64(0); now < 2; now++ {
		rc, _ := ref.Step(now, bad)
		pc, _ := rep.Step(now, bad)
		if rc != Bad || pc != Bad {
			t.Fatalf("setup slot %d: classes %v/%v, want Bad", now, rc, pc)
		}
	}
	for now := int64(2); now < 7; now++ {
		rc, re := ref.Step(now, bad)
		pc, pe := rep.StepRepeat(now)
		if rc != pc || (re == nil) != (pe == nil) {
			t.Fatalf("slot %d: Step(%v, %v) vs StepRepeat(%v, %v)", now, rc, re, pc, pe)
		}
	}
	if ref.Stats() != rep.Stats() {
		t.Fatalf("stats %+v (Step) vs %+v (StepRepeat)", ref.Stats(), rep.Stats())
	}
	// The channels must agree after coasting ends, too: build a decoding
	// event on both.
	for now := int64(7); now < 12; now++ {
		one := []PacketID{PacketID(now)}
		rc, re := ref.Step(now, one)
		pc, pe := rep.Step(now, one)
		if rc != pc || (re == nil) != (pe == nil) {
			t.Fatalf("post-coast slot %d: %v/%v vs %v/%v", now, rc, re, pc, pe)
		}
	}
}

// TestStepRepeatPanicsWithoutBad: replaying is only legal immediately
// after a Bad slot.
func TestStepRepeatPanicsWithoutBad(t *testing.T) {
	for name, prep := range map[string]func(c *Channel){
		"fresh": func(*Channel) {},
		"after-good": func(c *Channel) {
			c.Step(0, []PacketID{1})
		},
		"after-silent": func(c *Channel) {
			c.Step(0, nil)
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := New(2, 0)
			prep(c)
			defer func() {
				if recover() == nil {
					t.Fatal("StepRepeat without a preceding Bad slot should panic")
				}
			}()
			c.StepRepeat(1)
		})
	}
}

// TestStepShardedDuplicatePanic pins which duplicate StepSharded
// reports: the panic message must name the same duplicated packet
// regardless of chunk boundaries.
func TestStepShardedDuplicatePanic(t *testing.T) {
	txs := make([]PacketID, 0, 40)
	for i := 0; i < 19; i++ {
		txs = append(txs, PacketID(i))
	}
	txs = append(txs, 7, 3) // two duplicates
	var msgs []string
	for _, nc := range []int{1, 3, 16} {
		c := New(2, 0)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("nc=%d: duplicate transmitter should panic", nc)
				}
				msgs = append(msgs, fmt.Sprint(r))
			}()
			c.StepSharded(0, chunkify(txs, nc, 0))
		}()
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("duplicate panic message depends on chunking: %q vs %q", m, msgs[0])
		}
	}
}
