package channel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// sortFindDup is FindDup as it was before the bitmap regime: the
// quadratic scan for up to 32 IDs, a sorted scratch copy above that.
func sortFindDup(txs []PacketID) (PacketID, bool) {
	if len(txs) <= 32 {
		for i := 1; i < len(txs); i++ {
			for j := 0; j < i; j++ {
				if txs[i] == txs[j] {
					return txs[i], true
				}
			}
		}
		return 0, false
	}
	s := slices.Clone(txs)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i], true
		}
	}
	return 0, false
}

// dupFuzzIDs decodes a fuzz input: ID i is base + step·offset, offset
// the i-th little-endian uint16 of offs, in wrapping int64 arithmetic.
func dupFuzzIDs(base, step int64, offs []byte) []PacketID {
	ids := make([]PacketID, len(offs)/2)
	for i := range ids {
		ids[i] = PacketID(base + step*int64(binary.LittleEndian.Uint16(offs[2*i:])))
	}
	return ids
}

// spanOffsets returns the offsets 0, 1, …, n−2 and then span: n IDs
// whose span is exactly span.
func spanOffsets(n int, span uint16) []byte {
	b := make([]byte, 0, 2*n)
	for i := 0; i < n-1; i++ {
		b = binary.LittleEndian.AppendUint16(b, uint16(i))
	}
	return binary.LittleEndian.AppendUint16(b, span)
}

// FuzzFindDup holds FindDup to the sort-only check it replaced: the
// same verdict, and the same reported ID when a duplicate exists, with
// the scratch never longer than the list.  The seeds sit on the regime
// boundary (spans of 64·len−1, 64·len and 64·len+1) and near ±2^63,
// where hi−lo overflows int64.
func FuzzFindDup(f *testing.F) {
	for _, n := range []int{33, 40} {
		for _, span := range []int{64*n - 1, 64 * n, 64*n + 1} {
			f.Add(int64(0), int64(1), spanOffsets(n, uint16(span)))
			dup := spanOffsets(n, uint16(span))
			copy(dup[2*(n-2):], dup[2:4]) // ID 1 twice
			f.Add(int64(-5), int64(1), dup)
		}
	}
	f.Add(int64(math.MaxInt64-20), int64(1), spanOffsets(33, 40))              // wraps past MaxInt64
	f.Add(int64(math.MinInt64), int64(1)<<48, spanOffsets(33, 65535))          // spans all of int64
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), spanOffsets(33, 1))      // MaxInt64 and -1
	f.Add(int64(math.MinInt64+3), int64(-1), append(spanOffsets(33, 9), 4, 0)) // wraps below MinInt64, a duplicate
	f.Add(int64(7), int64(0), spanOffsets(40, 0))                              // all equal
	f.Fuzz(func(t *testing.T, base, step int64, offs []byte) {
		ids := dupFuzzIDs(base, step, offs)
		var scratch []PacketID
		got, found := FindDup(ids, &scratch)
		want, wantFound := sortFindDup(ids)
		if found != wantFound || (found && got != want) {
			t.Fatalf("FindDup = (%d, %v), sort-only (%d, %v) on %v", got, found, want, wantFound, ids)
		}
		if len(scratch) > len(ids) {
			t.Fatalf("scratch holds %d words for %d IDs", len(scratch), len(ids))
		}
	})
}

// BenchmarkFindDup times the duplicate check of one slot of distinct
// IDs: dense (consecutive from a random start, checked with the
// bitmap) and sparse (spread over 2^40, checked by sorting), at 33, 256
// and 4,096 IDs.
func BenchmarkFindDup(b *testing.B) {
	r := rng.New(1)
	for _, n := range []int{33, 256, 4096} {
		dense, sparse := make([]PacketID, n), make([]PacketID, n)
		start := PacketID(r.Intn(1 << 30))
		for i := range dense {
			dense[i] = start + PacketID(i)
			sparse[i] = PacketID(r.Int63n(1 << 40))
		}
		r.Shuffle(n, func(i, j int) { dense[i], dense[j] = dense[j], dense[i] })
		for _, c := range []struct {
			name string
			ids  []PacketID
		}{{"dense", dense}, {"sparse", sparse}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				var scratch []PacketID
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, dup := FindDup(c.ids, &scratch); dup {
						b.Fatal("duplicate in distinct IDs")
					}
				}
			})
		}
	}
}
