package cache_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/sweep"
)

// BenchmarkRecordCodec times one sweep cell record — a dba cell of a
// small grid, as a worker stores it — through the JSON codec the store
// runs (indented on Put, as Put writes it) and through the store
// itself: put encodes and writes durably (fsync before rename, then the
// directory), get reads and decodes.  The gap between them is the
// disk's share of a stored cell.
func BenchmarkRecordCodec(b *testing.B) {
	spec := sweep.Spec{Models: []string{"coded"}, Protocols: []string{"dba"}, Arrivals: []string{"bernoulli"},
		Kappas: []int{8}, Rates: []float64{0.3}, Adversaries: []string{"none"}, Trials: 3, Horizon: 2000, Seed: 1}
	g, err := sweep.Run(context.Background(), spec, sweep.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	const id = "0123456789abcdef0123456789abcdef"
	rec := &sweep.CellRecord{SchemaVersion: sweep.SchemaVersion, ID: id, Key: g.Cells[0].Key(), Cell: g.Cells[0]}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := json.MarshalIndent(rec, "", "  "); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var got sweep.CellRecord
			if err := json.Unmarshal(data, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	s, err := cache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := s.Put(id, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var got sweep.CellRecord
			if ok, err := s.Get(id, &got); !ok || err != nil || !got.Valid(id) {
				b.Fatalf("Get: ok=%v err=%v", ok, err)
			}
		}
	})
}
