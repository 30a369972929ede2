package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
)

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("2/4")
	if err != nil || sh.Index != 2 || sh.Count != 4 {
		t.Fatalf("ParseShard(2/4) = %v, %v", sh, err)
	}
	if sh.String() != "2/4" {
		t.Fatalf("String() = %q", sh.String())
	}
	for _, bad := range []string{"", "garbage", "0/4", "5/4", "-1/4", "1/0", "1/-2", "1", "1/", "/4", "a/b", "1/4/2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard accepted %q", bad)
		}
	}
}

func TestShardIndicesPartition(t *testing.T) {
	// Shards 1..N partition the grid: disjoint, union exact, balanced to
	// within one cell.
	for _, total := range []int{0, 1, 3, 4, 7, 132} {
		for _, n := range []int{1, 2, 4, 5} {
			owner := make([]int, total)
			min, max := total, 0
			for k := 1; k <= n; k++ {
				sh, size := Shard{Index: k, Count: n}, 0
				for i := range owner {
					if !sh.owns(i) {
						continue
					}
					if owner[i] != 0 {
						t.Fatalf("total=%d n=%d: cell %d owned by shards %d and %d", total, n, i, owner[i], k)
					}
					owner[i] = k
					size++
				}
				if size < min {
					min = size
				}
				if size > max {
					max = size
				}
			}
			for i, k := range owner {
				if k == 0 {
					t.Fatalf("total=%d n=%d: cell %d unassigned", total, n, i)
				}
			}
			if total >= n && max-min > 1 {
				t.Fatalf("total=%d n=%d: unbalanced shards (sizes %d..%d)", total, n, min, max)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if !(Shard{}).owns(i) {
			t.Fatalf("zero shard does not own cell %d", i)
		}
	}
}

// copyRecords copies every cell record in one store's directory into
// another's, as an operator gathers shard workers' records.
func copyRecords(t *testing.T, from, to string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(from, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// shardWorkerArtifacts drains the spec as n shard workers at the given
// parallelism, each into a store of its own as on machines that share
// nothing, copies their records into one directory, and assembles it.
func shardWorkerArtifacts(t *testing.T, spec Spec, n, parallelism int) (jsonOut, csvOut []byte) {
	t.Helper()
	gathered, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for k := n; k >= 1; k-- {
		store, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunWorker(context.Background(), spec, Options{
			Parallelism: parallelism, Cache: store, Shard: Shard{Index: k, Count: n},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != res.Total || res.Loaded != 0 {
			t.Fatalf("shard %d/%d: executed %d, loaded %d of %d", k, n, res.Executed, res.Loaded, res.Total)
		}
		covered += res.Total
		copyRecords(t, store.Dir(), gathered.Dir())
	}
	if covered != spec.Cells() {
		t.Fatalf("%d shards counted %d cells, grid has %d", n, covered, spec.Cells())
	}
	grid, err := Assemble(context.Background(), spec, gathered)
	if err != nil {
		t.Fatal(err)
	}
	data, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, []byte(grid.CSV())
}

func TestShardWorkersAssembleByteIdentical(t *testing.T) {
	// The distribution contract: 4 shard workers, each into its own
	// store, assemble from their gathered records to artifacts
	// byte-identical to an unsharded run of the same spec, at
	// parallelism 1 and N alike.  The spec mixes models and adversaries
	// so the skip rules are live during partitioning.
	spec := adversarialSpec()
	spec.Models = []string{"coded", "classical:ternary"}
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := []byte(grid.CSV())
	for _, par := range []int{1, 8} {
		gotJSON, gotCSV := shardWorkerArtifacts(t, spec, 4, par)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("parallelism %d: assembled JSON differs from unsharded run", par)
		}
		if !bytes.Equal(wantCSV, gotCSV) {
			t.Fatalf("parallelism %d: assembled CSV differs from unsharded run", par)
		}
	}
}

func TestRunShardMatchesUnshardedCells(t *testing.T) {
	// A shard worker claims exactly its slice, and every record it
	// writes holds the cell an unsharded run computes at that position.
	spec := smallSpec()
	grid, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 2, Count: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 5 || res.Executed != 5 {
		t.Fatalf("shard 2/3 of 16 cells: executed %d of %d, want 5 of 5", res.Executed, res.Total)
	}
	p := newPlan(&spec)
	for i := range p.cells {
		var rec CellRecord
		ok, err := store.Get(p.ids[i], &rec)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (i%3 == 1) {
			t.Fatalf("cell %d: record present = %v, but shard 2/3 owns it = %v", i, ok, i%3 == 1)
		}
		if ok && rec.Cell != grid.Cells[i] {
			t.Fatalf("cell %d differs between shard worker and unsharded run:\n%+v\n%+v", i, rec.Cell, grid.Cells[i])
		}
	}
}

// runCounting runs the spec with a cache, returning the grid's JSON and
// how many cells were executed vs loaded.
func runCounting(t *testing.T, spec Spec, store *cache.Store, resume bool) (data []byte, executed, cached int) {
	t.Helper()
	grid, err := Run(context.Background(), spec, Options{
		Cache:  store,
		Resume: resume,
		OnCell: func(done, total int, cell *CellSummary, fromCache bool) {
			if fromCache {
				cached++
			} else {
				executed++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err = grid.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, executed, cached
}

func TestResumeExecutesOnlyMissingCells(t *testing.T) {
	// The resume contract: after an interrupted run, a -resume re-run
	// executes exactly the cells whose records are missing and its
	// artifact is byte-identical to an uninterrupted run.
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, executed, cached := runCounting(t, spec, store, false)
	if executed != 16 || cached != 0 {
		t.Fatalf("cold run: executed=%d cached=%d, want 16/0", executed, cached)
	}

	// Simulate a kill mid-sweep: drop 3 of the 16 completed-cell records.
	records, err := filepath.Glob(filepath.Join(store.Dir(), "*.json"))
	if err != nil || len(records) != 16 {
		t.Fatalf("cache holds %d records (%v), want 16", len(records), err)
	}
	for _, path := range records[:3] {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	got, executed, cached := runCounting(t, spec, store, true)
	if executed != 3 || cached != 13 {
		t.Fatalf("resumed run: executed=%d cached=%d, want 3/13", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("resumed artifact differs from the uninterrupted run")
	}

	// A fully-warm resume executes nothing and still reproduces the bytes.
	got, executed, cached = runCounting(t, spec, store, true)
	if executed != 0 || cached != 16 {
		t.Fatalf("warm run: executed=%d cached=%d, want 0/16", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("fully-cached artifact differs from the uninterrupted run")
	}
}

func TestResumeIgnoresForeignAndCorruptRecords(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := runCounting(t, spec, store, false)

	// Corrupt one record (truncate) and tamper another's key; both must
	// be treated as misses and re-executed, not merged.
	records, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if err := os.WriteFile(records[0], []byte(`{"schema_version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var rec CellRecord
	id := filepath.Base(records[1])
	id = id[:len(id)-len(".json")]
	if ok, err := store.Get(id, &rec); err != nil || !ok {
		t.Fatalf("reading record %s: ok=%v err=%v", id, ok, err)
	}
	rec.Key = "not/the/right/cell"
	if err := store.Put(id, &rec); err != nil {
		t.Fatal(err)
	}

	got, executed, cached := runCounting(t, spec, store, true)
	if executed != 2 || cached != 14 {
		t.Fatalf("executed=%d cached=%d, want 2/14", executed, cached)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("artifact differs after invalid records were re-executed")
	}
}

func TestResumeRequiresCache(t *testing.T) {
	if _, err := Run(context.Background(), smallSpec(), Options{Resume: true}); err == nil {
		t.Fatal("Resume without a Cache accepted")
	}
}

func TestShardsShareOneCache(t *testing.T) {
	// A shard worker persists into the same store an unsharded resume
	// can reuse: drain shard 1/2 into a cache, then resume the full grid
	// — only shard 2/2's cells execute.
	spec := smallSpec()
	store, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorker(context.Background(), spec, Options{Cache: store, Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 8 || res.Executed != 8 {
		t.Fatalf("shard 1/2 of 16 cells: executed %d of %d", res.Executed, res.Total)
	}
	_, executed, cached := runCounting(t, spec, store, true)
	if cached != res.Total || executed != 16-res.Total {
		t.Fatalf("executed=%d cached=%d after a %d-cell shard", executed, cached, res.Total)
	}
}
