package arena

import (
	"testing"

	"repro/internal/rng"
)

func TestBasicOps(t *testing.T) {
	var x Index[int]
	if x.Len() != 0 {
		t.Fatalf("empty Len = %d", x.Len())
	}
	if _, ok := x.Get(0); ok {
		t.Fatal("Get on empty index succeeded")
	}
	x.Put(5, 50)
	x.Put(5, 51) // overwrite
	x.Put(-3, 30)
	x.Put(1<<40, 40)
	if x.Len() != 3 {
		t.Fatalf("Len = %d, want 3", x.Len())
	}
	for _, c := range []struct {
		k int64
		v int
	}{{5, 51}, {-3, 30}, {1 << 40, 40}} {
		if v, ok := x.Get(c.k); !ok || v != c.v {
			t.Fatalf("Get(%d) = %d,%v want %d,true", c.k, v, ok, c.v)
		}
	}
	if old, ok := x.Swap(5, 52); !ok || old != 51 {
		t.Fatalf("Swap(5) = %d,%v want 51,true", old, ok)
	}
	if v, ok := x.Delete(5); !ok || v != 52 {
		t.Fatalf("Delete(5) = %d,%v want 52,true", v, ok)
	}
	if _, ok := x.Delete(5); ok {
		t.Fatal("double Delete succeeded")
	}
	if x.Has(5) {
		t.Fatal("Has(5) after delete")
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	x.Reset()
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after Reset: Len=%d Pages=%d", x.Len(), x.Pages())
	}
	if _, ok := x.Get(-3); ok {
		t.Fatal("Get after Reset succeeded")
	}
}

// TestAgainstMap drives the index and a plain map with the same random
// operation stream, including negative and widely-spaced keys, and
// requires identical contents throughout.
func TestAgainstMap(t *testing.T) {
	r := rng.New(7)
	var x Index[int64]
	ref := map[int64]int64{}
	keys := make([]int64, 0, 256)
	randKey := func() int64 {
		switch r.Intn(4) {
		case 0:
			return int64(r.Intn(40)) - 8 // dense, straddling zero
		case 1:
			return int64(r.Intn(4)) * 100_000 // page-sparse
		case 2:
			return int64(r.Intn(1 << 20))
		default:
			if len(keys) > 0 {
				return keys[r.Intn(len(keys))] // revisit an old key
			}
			return 0
		}
	}
	for i := 0; i < 200_000; i++ {
		k := randKey()
		switch r.Intn(3) {
		case 0:
			v := int64(i)
			x.Put(k, v)
			ref[k] = v
			keys = append(keys, k)
		case 1:
			got, gotOK := x.Delete(k)
			want, wantOK := ref[k]
			if gotOK != wantOK || got != want {
				t.Fatalf("op %d: Delete(%d) = %d,%v want %d,%v", i, k, got, gotOK, want, wantOK)
			}
			delete(ref, k)
		case 2:
			got, gotOK := x.Get(k)
			want, wantOK := ref[k]
			if gotOK != wantOK || got != want {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, got, gotOK, want, wantOK)
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", i, x.Len(), len(ref))
		}
	}
	// Full-content check via Range.
	seen := 0
	x.Range(func(k int64, v int64) bool {
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("Range visited (%d,%d); map says %d,%v", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range visited %d entries, map has %d", seen, len(ref))
	}
}

// TestSlidingWindowMemory models the engine's packet lifecycle: IDs
// are assigned sequentially and freed shortly after.  The mapped page
// count must track the live span, not the total number of keys ever
// inserted — this is the backlog-bounded memory contract.  The window
// slides up, as the engine's does, and down.
func TestSlidingWindowMemory(t *testing.T) {
	for _, dir := range []int64{1, -1} {
		var x Index[int64]
		const window = 3 * PageSize
		for i := int64(0); i < 100*PageSize; i++ {
			k := dir * i
			x.Put(k, k)
			if i >= window {
				if _, ok := x.Delete(k - dir*window); !ok {
					t.Fatalf("Delete(%d) missed", k-dir*window)
				}
			}
			if p := x.Pages(); p > window/PageSize+2 {
				t.Fatalf("at key %d: %d pages mapped for a %d-entry window", k, p, window)
			}
		}
		if x.Len() != window {
			t.Fatalf("direction %d: Len = %d, want %d", dir, x.Len(), window)
		}
	}
}

// TestOverflowFarKeys drives keys too far apart for any dense window —
// the overflow-directory path — interleaved with dense keys, checking
// contents, page accounting, deletion, ordered iteration, and Reset.
func TestOverflowFarKeys(t *testing.T) {
	var x Index[int64]
	keys := []int64{0, 1, PageSize, -PageSize,
		1 << 30, 1 << 40, 1<<62 - 1, -(1 << 40), -(1 << 30)}
	for i, k := range keys {
		x.Put(k, int64(i))
	}
	if x.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(keys))
	}
	for i, k := range keys {
		if v, ok := x.Get(k); !ok || v != int64(i) {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, v, ok, i)
		}
	}
	// Every key is on its own page except 0 and 1.
	if p := x.Pages(); p != len(keys)-1 {
		t.Fatalf("Pages = %d, want %d", p, len(keys)-1)
	}
	prev := int64(-1 << 62)
	seen := 0
	x.Range(func(k int64, _ int64) bool {
		if k <= prev {
			t.Fatalf("Range out of order: %d after %d", k, prev)
		}
		prev = k
		seen++
		return true
	})
	if seen != len(keys) {
		t.Fatalf("Range visited %d, want %d", seen, len(keys))
	}
	for i, k := range keys {
		if v, ok := x.Delete(k); !ok || v != int64(i) {
			t.Fatalf("Delete(%d) = %d,%v want %d,true", k, v, ok, i)
		}
	}
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after deletes: Len=%d Pages=%d", x.Len(), x.Pages())
	}
	// Re-anchor after full vacation: a far key restarts the window.
	x.Put(1<<50, 7)
	if v, ok := x.Get(1 << 50); !ok || v != 7 {
		t.Fatalf("Get after re-anchor = %d,%v", v, ok)
	}
	x.Reset()
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after Reset: Len=%d Pages=%d", x.Len(), x.Pages())
	}
}

// TestRangeOrder checks ascending-key iteration across pages.
func TestRangeOrder(t *testing.T) {
	var x Index[int]
	for _, k := range []int64{900, -5, 0, 511, 512, 513, 1 << 30} {
		x.Put(k, 1)
	}
	prev := int64(-1 << 62)
	x.Range(func(k int64, _ int) bool {
		if k <= prev {
			t.Fatalf("Range out of order: %d after %d", k, prev)
		}
		prev = k
		return true
	})
}

// TestOverflowPageCoveredByWindow re-anchors the dense window over a
// page that already lives in the overflow map.  The window must take
// the page over: a lookup through the window's empty slot would report
// the live key missing, and a later Put would map the page twice.
func TestOverflowPageCoveredByWindow(t *testing.T) {
	var x Index[int64]
	const far = int64(1) << 40
	x.Put(0, 1)
	x.Put(far, 2) // too far from 0 for one window: overflow page
	x.Delete(0)   // window fully vacated
	x.Put(far+PageSize, 3)
	x.Put(far-PageSize, 4) // window now spans far's page
	if v, ok := x.Get(far); !ok || v != 2 {
		t.Fatalf("Get(%d) = %d,%v want 2,true", far, v, ok)
	}
	x.Put(far, 5)
	if x.Len() != 3 || x.Pages() != 3 {
		t.Fatalf("Len=%d Pages=%d, want 3 and 3", x.Len(), x.Pages())
	}
	want := map[int64]int64{far - PageSize: 4, far: 5, far + PageSize: 3}
	x.Range(func(k, v int64) bool {
		if want[k] != v {
			t.Fatalf("Range visited (%d,%d), want value %d", k, v, want[k])
		}
		delete(want, k)
		return true
	})
	if len(want) != 0 {
		t.Fatalf("Range missed %v", want)
	}
	for _, k := range []int64{far - PageSize, far, far + PageSize} {
		if _, ok := x.Delete(k); !ok {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if x.Len() != 0 || x.Pages() != 0 {
		t.Fatalf("after deletes: Len=%d Pages=%d", x.Len(), x.Pages())
	}
}

// TestSlidingWindowAllocations pins the page table's reuse: a window
// sliding over N sequential keys re-anchors about N/PageSize times, and
// each re-anchor must slide the live pages within the table instead of
// allocating a new one, so the whole run allocates O(log N) times.
func TestSlidingWindowAllocations(t *testing.T) {
	const window, n = 3 * PageSize, 1 << 20
	for _, dir := range []int64{1, -1} {
		allocs := testing.AllocsPerRun(1, func() {
			var x Index[int64]
			for i := int64(0); i < n; i++ {
				x.Put(dir*i, i)
				if i >= window {
					x.Delete(dir * (i - window))
				}
			}
		})
		if allocs > 32 {
			t.Fatalf("sliding %d keys in direction %d through a %d-key window allocated %v times, want <= 32",
				n, dir, window, allocs)
		}
	}
}

// BenchmarkIndexSlidingWindow is the engine's in-flight pattern: keys
// arrive in order and leave a fixed distance behind.  One op is one Put
// and one Delete.
func BenchmarkIndexSlidingWindow(b *testing.B) {
	const window = 3 * PageSize
	var x Index[int64]
	b.ReportAllocs()
	k := int64(0)
	for b.Loop() {
		x.Put(k, k)
		if k >= window {
			x.Delete(k - window)
		}
		k++
	}
}

// BenchmarkIndexScatteredKeys is the coded channel's pattern: an
// epoch's transmitters, random IDs from a wide backlog, are put and
// then all deleted by a decoding event.  One op is 64 keys over a 2¹⁸
// span, each put and deleted.
func BenchmarkIndexScatteredKeys(b *testing.B) {
	const keys, span, sets = 64, 1 << 18, 64
	r := rng.New(3)
	ks := make([]int64, keys*sets)
	for i := range ks {
		ks[i] = int64(r.Intn(span))
	}
	var x Index[int64]
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		set := ks[(i%sets)*keys:][:keys]
		for _, k := range set {
			x.Put(k, k)
		}
		for _, k := range set {
			x.Delete(k)
		}
		i++
	}
}
