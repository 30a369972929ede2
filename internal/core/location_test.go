package core

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/channel"
	"repro/internal/rng"
)

// TestLocationRoundTrip reads every kind of location back at the limits
// of its fields: bucket bases at both ends of int32 and at the list
// markers, and indices 0 and MaxInt32 in every bucket and list.
func TestLocationRoundTrip(t *testing.T) {
	if s := unsafe.Sizeof(location{}); s != 8 {
		t.Fatalf("location is %d bytes, want 8", s)
	}
	type view struct {
		bucket, joiner, inactive bool
		index                    int
	}
	for _, idx := range []int32{0, 1, math.MaxInt32} {
		for _, base := range []int{math.MinInt32, -1, int(joinerList), int(inactiveList), math.MaxInt32} {
			l := bucketLoc(base, idx)
			got := view{l.inBucket(), l.inList(joinerList), l.inList(inactiveList), l.index()}
			if want := (view{bucket: true, index: int(idx)}); got != want || int(l.base) != base {
				t.Errorf("bucket %d index %d: read back %+v base %d", base, idx, got, l.base)
			}
		}
		for _, list := range []int32{joinerList, inactiveList} {
			l := listLoc(list, idx)
			got := view{l.inBucket(), l.inList(joinerList), l.inList(inactiveList), l.index()}
			want := view{joiner: list == joinerList, inactive: list == inactiveList, index: int(idx)}
			if got != want {
				t.Errorf("list %d index %d: read back %+v, want %+v", list, idx, got, want)
			}
		}
	}
}

// activateByAppend is the activation loop activate replaced, kept as
// its reference: every inactive packet is appended to the activation
// bucket, its location rewritten one append at a time.
func activateByAppend(d *DecodableBackoff) {
	if len(d.inactive) > 0 {
		b := d.getBucket(0 - d.shift)
		b.ids = slices.Grow(b.ids, len(d.inactive))
		for _, id := range d.inactive {
			d.addToBucket(b, id)
		}
		d.stats.Activations += int64(len(d.inactive))
	}
	d.inactive = d.inactive[:0]
}

// TestActivateMatchesAppendReference ends a silent epoch with activate
// and with the reference on two instances driven alike, once into an
// empty activation bucket (activate hands it the inactive list) and once
// into one that already holds packets (activate appends).  Both must
// leave the same buckets, locations, active count and Activations.
func TestActivateMatchesAppendReference(t *testing.T) {
	const kappa = 16
	// prepare leaves 30 packets active at exponent 0 minus those an
	// epoch delivered, and 37 inactive in the order swap-deletes left;
	// with overfull, an overfull epoch then lowers the active ones to
	// exponent -1, where the next silent epoch's activation bucket is.
	prepare := func(overfull bool) *DecodableBackoff {
		d := New(kappa, rng.New(11))
		ids := make([]channel.PacketID, 70)
		for i := range ids {
			ids[i] = channel.PacketID(i)
		}
		d.Inject(0, ids[:30])
		d.Transmitters(0, nil)
		d.Observe(channel.Feedback{Slot: 0, Silent: true})
		d.Inject(1, ids[30:])
		delivered := append(d.Transmitters(1, nil), 31, 45, 69)
		d.Observe(channel.Feedback{Slot: 1, Event: &channel.Event{Slot: 1, Packets: delivered}})
		if overfull {
			d.Transmitters(2, nil)
			for s := int64(2); d.inEpoch; s++ {
				d.Observe(channel.Feedback{Slot: s})
			}
		}
		// The start of endSilent, up to its activation.
		d.moveShift(1)
		d.mergeCapped()
		return d
	}
	for _, c := range []struct {
		name     string
		overfull bool
	}{{"empty bucket", false}, {"occupied bucket", true}} {
		t.Run(c.name, func(t *testing.T) {
			got, want := prepare(c.overfull), prepare(c.overfull)
			if _, found := got.bucketAt(0 - got.shift); found != c.overfull || len(got.inactive) != 37 {
				t.Fatalf("activation bucket present %v with %d inactive, want %v with 37",
					found, len(got.inactive), c.overfull)
			}
			got.activate()
			activateByAppend(want)
			checkInvariants(t, got)
			if len(got.buckets) != len(want.buckets) {
				t.Fatalf("%d buckets, reference %d", len(got.buckets), len(want.buckets))
			}
			for i, b := range got.buckets {
				if wb := want.buckets[i]; b.base != wb.base || !slices.Equal(b.ids, wb.ids) {
					t.Fatalf("bucket %d: base %d ids %v, reference base %d ids %v", i, b.base, b.ids, wb.base, wb.ids)
				}
				for _, id := range b.ids {
					l, _ := got.loc.Get(int64(id))
					if wl, _ := want.loc.Get(int64(id)); l != wl {
						t.Fatalf("packet %d: location %+v, reference %+v", id, l, wl)
					}
				}
			}
			if got.active != want.active || got.stats.Activations != want.stats.Activations || len(got.inactive) != 0 {
				t.Fatalf("active %d, Activations %d, %d inactive; reference %d, %d, 0",
					got.active, got.stats.Activations, len(got.inactive), want.active, want.stats.Activations)
			}
		})
	}
}

// BenchmarkBatch256kKappa64 runs Decodable Backoff in the shape of the
// benchmark's dba-batch workload: a fresh instance and coded channel
// per 2¹⁸-packet batch at κ=64, drained.  It reports the bytes
// allocated per packet and the time per slot (every slot is stepped;
// the engine's coast is not in the loop).
func BenchmarkBatch256kKappa64(b *testing.B) {
	const kappa, n = 64, 1 << 18
	ids := make([]channel.PacketID, n)
	for j := range ids {
		ids[j] = channel.PacketID(j)
	}
	var slots int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(kappa, rng.New(uint64(i)))
		ch := channel.New(kappa, 4*kappa)
		d.Inject(0, ids)
		var buf []channel.PacketID
		for now := int64(0); d.Pending() > 0; now++ {
			buf = d.Transmitters(now, buf[:0])
			class, ev := ch.Step(now, buf)
			d.Observe(channel.Feedback{Slot: now, Silent: class == channel.Silent, Event: ev})
			slots++
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/packet")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
}
