// Package channel implements the Coded Radio Network Model of Bender,
// Gilbert, Kuhn, Kuszmaul, and Médard (SPAA 2022).
//
// Time is slotted.  In each slot some set of packets broadcasts.  A slot
// is silent (no transmitters), good (1..κ transmitters), or bad (more
// than κ, where κ is the hardware decoding threshold).  The base station
// accumulates information from good slots and a decoding event of size j
// fires at the first time t at which some window that begins with a good
// slot, contains no earlier decoding event, and has at least j good slots
// covers exactly j distinct broadcasting packets (Definition 1 of the
// paper).  Decoded packets leave the system, and everything broadcast
// before the event that was not part of its window is discarded —
// decoding windows are disjoint.
//
// Devices hear only two things: whether a slot was silent, and decoding
// events.  They cannot distinguish good slots from bad ones.  The
// Feedback type exposes exactly that interface; the SlotClass returned by
// Step is for the measurement harness only.
//
// The per-slot path is built to stay off the allocator and out of the
// map runtime: last-occurrence tracking lives in a paged arena keyed by
// packet ID (internal/arena) and names a recycled member list, not an
// entry, so a slot that resends the previous good slot's list moves one
// list handle; window occupancy is a uint64 bitset (linalg.Bits) so
// detection scans words instead of entries, duplicate validation sorts
// a reused scratch slice, and the decoding event and its packet slice
// are reused across events.
package channel

import (
	"fmt"
	"slices"

	"repro/internal/arena"
	"repro/internal/linalg"
)

// PacketID identifies a packet in the system.  IDs are assigned by the
// simulation engine in arrival order.
type PacketID int64

// SlotClass classifies a slot by its number of transmitters.
type SlotClass uint8

const (
	// Silent means no packet broadcast in the slot.
	Silent SlotClass = iota
	// Good means between 1 and κ packets broadcast.
	Good
	// Bad means more than κ packets broadcast; the base station learns
	// nothing from the slot.
	Bad
)

// String returns the class name.
func (c SlotClass) String() string {
	switch c {
	case Silent:
		return "silent"
	case Good:
		return "good"
	case Bad:
		return "bad"
	}
	return fmt.Sprintf("SlotClass(%d)", uint8(c))
}

// Event is a decoding event: at slot Slot, the base station decodes
// every packet that broadcast in a good slot of the window
// [WindowStart, Slot].  Packets is sorted by ID.
type Event struct {
	Slot        int64
	WindowStart int64
	Packets     []PacketID
}

// Size returns the number of packets delivered by the event.
func (e *Event) Size() int { return len(e.Packets) }

// Feedback is everything a device can hear about a slot: silence, and
// any decoding event.  On the coded channel devices cannot tell good
// slots from bad ones, so Collision is never set there; a classical
// medium with ternary collision detection sets it when a busy slot
// carried no decodable transmission (see internal/medium).
type Feedback struct {
	Slot   int64
	Silent bool
	Event  *Event // nil if no decoding event occurred at this slot
	// Collision reports that the slot was audibly a collision.  Only
	// media whose feedback model can distinguish collisions from
	// successes (classical ternary CD) ever set it.
	Collision bool
}

// Stats aggregates channel-level counters over an execution.
type Stats struct {
	SilentSlots int64
	GoodSlots   int64
	BadSlots    int64
	Events      int64
	Delivered   int64
	// PrunedPackets counts packets whose pending broadcast information
	// was discarded because the decoding window length cap was exceeded.
	PrunedPackets int64
	// JammedSlots counts slots spoiled by jamming energy.
	JammedSlots int64
}

// goodEntry records one good slot awaiting a decoding event: the slot
// number and the member list of the packets whose most recent broadcast
// was in this slot (noList once they have all broadcast again).
type goodEntry struct {
	slot int64
	list int32
}

// noList is the list handle of an entry without members.
const noList = -1

// memberList is one good slot's members; entry is the absolute index of
// the goodEntry holding the list.  Lists live in Channel.lists and are
// named by handle, so a list moves between entries without touching the
// references of its members.
type memberList struct {
	entry int
	ids   []PacketID
}

// occRef locates a packet's most recent broadcast: a member list and
// the packet's position in it.  Both fit int32: every list in use holds
// a distinct tracked packet, and no list outgrows one slot's
// transmitters.
type occRef struct {
	list int32
	pos  int32
}

// Channel is the base station side of the Coded Radio Network Model.
// It classifies slots and detects decoding events per Definition 1.
// The zero value is not usable; call New (or ResetTo).
type Channel struct {
	kappa     int
	maxWindow int // 0 = unbounded

	entries  []goodEntry // good slots since the last decoding event
	firstAbs int         // absolute index of entries[0]
	// lists holds the member lists by handle, and freeLists the handles
	// of lists no entry holds, whose storage the next good slot reuses:
	// without recycling the steady-state per-slot path allocates one
	// slice per good slot.  Both are bounded by the peak number of
	// simultaneously non-empty entries.
	lists     []memberList
	freeLists []int32
	// occ tracks which tracked entries still have live members (bit i ↔
	// entries[i] non-empty) and total counts live members across them,
	// so event detection walks only non-empty entries via word scans.
	occ   linalg.Bits
	total int
	// lastOcc maps a packet ID to its most recent broadcast; the paged
	// arena replaces the map that used to dominate the slot profile.
	lastOcc arena.Index[occRef]

	stats Stats
	// prevTxs caches the last validated transmitter list: epoch-based
	// protocols resend identical sets for many consecutive slots, and an
	// equality scan is far cheaper than re-validating thousands of IDs.
	prevTxs []PacketID
	// dupScratch is the reused sort buffer for large-slot duplicate
	// validation.
	dupScratch []PacketID

	// ev and evPackets back the returned decoding event, reused across
	// events so the steady-state path never allocates.
	ev        Event
	evPackets []PacketID

	// lastBad guards StepRepeat: only a slot known to repeat a bad slot
	// may skip classification.
	lastBad bool

	// flat is StepSharded's reused concatenation buffer.
	flat []PacketID
}

// New returns a channel with decoding threshold kappa.  maxWindow caps
// the length (in slots) of any decoding window; information older than
// the cap is discarded, mirroring a base station with bounded memory.
// maxWindow = 0 means unbounded.  The paper notes windows of length O(κ)
// suffice for the Decodable Backoff Algorithm; the harness default is 4κ.
func New(kappa, maxWindow int) *Channel {
	c := new(Channel)
	c.ResetTo(kappa, maxWindow)
	return c
}

// Kappa returns the decoding threshold.
func (c *Channel) Kappa() int { return c.kappa }

// MaxWindow returns the decoding window cap (0 = unbounded).
func (c *Channel) MaxWindow() int { return c.maxWindow }

// Stats returns a copy of the accumulated counters.
func (c *Channel) Stats() Stats { return c.stats }

// AddSilent accounts n silent slots without stepping the channel.  The
// simulation engine uses it when it fast-forwards through provably idle
// stretches; silent slots never change detector state, so only the
// counter needs updating.
func (c *Channel) AddSilent(n int64) {
	if n < 0 {
		panic("channel: negative silent-slot count")
	}
	c.stats.SilentSlots += n
}

// Step processes one slot in which the given packets broadcast.  It
// returns the slot class and the decoding event, if one fired.  Slots
// must be fed in increasing time order.  Step panics if txs contains a
// duplicate ID (one device cannot send two packets at once).
//
// The returned Event (and its Packets slice) is only valid until the
// channel is next stepped; callers that need it longer must copy it.
//
// Jamming is not the channel's concern: adversarial slot-spoiling lives
// in the medium layer (internal/medium.Jam), which composes a jammer
// over any medium and never forwards spoiled slots here.
func (c *Channel) Step(now int64, txs []PacketID) (SlotClass, *Event) {
	switch {
	case len(txs) == 0:
		c.stats.SilentSlots++
		c.lastBad = false
		return Silent, nil
	case len(txs) > c.kappa:
		c.checkDuplicates(txs)
		c.stats.BadSlots++
		c.lastBad = true
		return Bad, nil
	}
	repeat := c.checkDuplicates(txs)
	c.lastBad = false
	return Good, c.goodSlot(now, txs, repeat)
}

// StepRepeat replays the most recently stepped slot's transmitter
// multiset at slot now, in O(1).  It is only valid when that slot
// classified Bad — bad slots never change detector state, so replaying
// one moves a counter and nothing else.  The engine's event-driven
// fast-forward uses it to coast through runs of provably identical bad
// slots (e.g. the tail of an overfull epoch) without re-collecting or
// re-validating thousands of transmitters per slot.
func (c *Channel) StepRepeat(now int64) (SlotClass, *Event) {
	if !c.lastBad {
		panic("channel: StepRepeat without a preceding bad slot")
	}
	c.stats.BadSlots++
	return Bad, nil
}

// FanOut schedules n independent tasks f(0)..f(n-1) and returns when
// all have finished.  It survives only in the medium.Sharded signature.
type FanOut func(n int, f func(int))

// StepSharded is Step on the concatenation of ordered transmitter
// chunks, built in a reused buffer.  No engine path calls it: it serves
// the benchmark's traced replay of the retired staged slot cycle (via
// medium.Sharded), and goes when a later benchmark change retires that
// replay.
func (c *Channel) StepSharded(now int64, chunks [][]PacketID) (SlotClass, *Event) {
	c.flat = c.flat[:0]
	for _, ch := range chunks {
		c.flat = append(c.flat, ch...)
	}
	return c.Step(now, c.flat)
}

// goodSlot runs the good-slot pipeline: prune the window cap, record
// the broadcast, detect a decoding event.  repeat reports that txs is
// the previously validated list.
func (c *Channel) goodSlot(now int64, txs []PacketID, repeat bool) *Event {
	c.stats.GoodSlots++
	c.prune(now)
	c.record(now, txs, repeat)
	ev := c.detect(now)
	if ev != nil {
		c.stats.Events++
		c.stats.Delivered += int64(len(ev.Packets))
		c.reset()
	}
	return ev
}

// checkDuplicates panics if txs holds a duplicate ID.  It reports
// whether txs is identical to the previously validated list, which it
// then need not validate again.
func (c *Channel) checkDuplicates(txs []PacketID) bool {
	if sameIDs(txs, c.prevTxs) {
		return true
	}
	if id, found := FindDup(txs, &c.dupScratch); found {
		panic(fmt.Sprintf("channel: packet %d transmitted twice in one slot", id))
	}
	// Cache only lists that passed validation, so a caller that recovers
	// from the panic cannot sneak the same invalid list past the cache.
	c.prevTxs = append(c.prevTxs[:0], txs...)
	return false
}

// FindDup reports a duplicated ID in txs.  Small lists use a quadratic
// scan (cheaper than any setup); larger ones sort a reused scratch copy
// and scan adjacent pairs, so validation needs no map, no per-call
// allocation once the scratch has grown, and no memory beyond the
// largest list checked.  The reported duplicate is deterministic: first
// by position for small lists, smallest duplicated ID for large ones.
// It is the one duplicate check every detector and medium shares.
func FindDup(txs []PacketID, scratch *[]PacketID) (PacketID, bool) {
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
	s := append((*scratch)[:0], txs...)
	slices.Sort(s)
	*scratch = s
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i], true
		}
	}
	return 0, false
}

// sameIDs reports whether a and b are element-wise identical.
func sameIDs(a, b []PacketID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newList returns the handle of an empty member list held by entry
// abs, reusing a freed list and its storage when one is available.
func (c *Channel) newList(abs int) int32 {
	var h int32
	if n := len(c.freeLists); n > 0 {
		h = c.freeLists[n-1]
		c.freeLists = c.freeLists[:n-1]
	} else {
		h = int32(len(c.lists))
		c.lists = append(c.lists, memberList{})
	}
	c.lists[h].entry = abs
	return h
}

// freeList empties list h and returns it to the free list.
func (c *Channel) freeList(h int32) {
	c.lists[h].ids = c.lists[h].ids[:0]
	c.freeLists = append(c.freeLists, h)
}

// dropMembers untracks every member of entries[pos], frees its list,
// and returns how many members it had.
func (c *Channel) dropMembers(pos int) int {
	h := c.entries[pos].list
	n := len(c.lists[h].ids)
	for _, id := range c.lists[h].ids {
		c.lastOcc.Delete(int64(id))
	}
	c.freeList(h)
	c.entries[pos].list = noList
	return n
}

// prune drops good slots that can no longer start a window ending at or
// after now because of the window-length cap.  Only entries with live
// members need their packets untracked; the occupancy bitset finds them
// without touching the (typically emptied) rest.
func (c *Channel) prune(now int64) {
	if c.maxWindow == 0 {
		return
	}
	minStart := now - int64(c.maxWindow) + 1
	drop := 0
	for drop < len(c.entries) && c.entries[drop].slot < minStart {
		drop++
	}
	if drop == 0 {
		return
	}
	for pos := c.occ.NextSet(0); pos >= 0 && pos < drop; pos = c.occ.NextSet(pos + 1) {
		n := c.dropMembers(pos)
		c.stats.PrunedPackets += int64(n)
		c.total -= n
	}
	// Slide the kept entries (at most the window) to the front, so the
	// buffer keeps its capacity and record's append stops reallocating.
	c.entries = c.entries[:copy(c.entries, c.entries[drop:])]
	c.firstAbs += drop
	c.occ.ShiftDown(drop)
}

// record appends the good slot and moves each transmitter's last
// occurrence to it.  repeat reports that txs is the previously
// validated list.
func (c *Channel) record(now int64, txs []PacketID, repeat bool) {
	idx := len(c.entries)
	abs := c.firstAbs + idx
	c.occ.EnsureBits(idx + 1)
	c.occ.Set(idx) // a good slot has at least one transmitter
	if repeat && idx > 0 {
		// Epoch fast path.  Step compares every non-silent slot with the
		// last validated list, so every non-silent slot since txs was
		// validated, that one included, was a good slot sending txs.  The
		// last entry is one of them (entries leave only from the front),
		// so its list was recorded from txs, and only a later record
		// could have removed a member.  Every last occurrence moves
		// wholesale, so the list itself moves to the new entry: the
		// references name the list, not the entry, and stay valid.  The
		// previous entry empties, exactly as the general path's
		// per-packet Swap/remove would leave it.
		h := c.entries[idx-1].list
		c.entries[idx-1].list = noList
		c.occ.Clear(idx - 1)
		c.lists[h].entry = abs
		c.entries = append(c.entries, goodEntry{slot: now, list: h})
		return
	}
	h := c.newList(abs)
	c.entries = append(c.entries, goodEntry{slot: now, list: h})
	l := &c.lists[h] // removeMember never grows c.lists
	for _, id := range txs {
		if ref, ok := c.lastOcc.Swap(int64(id), occRef{list: h, pos: int32(len(l.ids))}); ok {
			c.removeMember(ref)
		}
		l.ids = append(l.ids, id)
	}
	c.total += len(txs)
}

// removeMember deletes the packet at ref from its member list by
// swapping with the last member and fixing the moved packet's reference.
func (c *Channel) removeMember(ref occRef) {
	l := &c.lists[ref.list]
	idx := l.entry - c.firstAbs
	if idx < 0 || idx >= len(c.entries) || c.entries[idx].list != ref.list {
		return // the list's entry was already pruned or delivered
	}
	last := int32(len(l.ids) - 1)
	moved := l.ids[last]
	l.ids[ref.pos] = moved
	l.ids = l.ids[:last]
	if ref.pos != last {
		c.lastOcc.Put(int64(moved), ref)
	}
	c.total--
	if last == 0 {
		// The entry just emptied: clear its occupancy bit and free the
		// list now — an entry only ever loses members, so the list would
		// otherwise idle until the next event.
		c.occ.Clear(idx)
		c.freeList(ref.list)
		c.entries[idx].list = noList
	}
}

// detect scans candidate window starts for a valid decoding window ending
// at the current slot.  A start at entry i is valid iff the number of
// distinct packets whose most recent broadcast is at entry >= i is at
// most the number of good slots from entry i onward.  Among valid starts
// it picks the earliest, which delivers a superset of any other choice
// (windows sharing an endpoint are nested).
//
// The scan walks only non-empty entries, oldest first, via the
// occupancy bitset: every candidate start between two consecutive
// non-empty entries sees the same suffix of tracked packets, so one
// check per non-empty entry covers them all, and the first satisfied
// check is the earliest valid start.
func (c *Channel) detect(now int64) *Event {
	L := len(c.entries)
	best := -1
	prefix := 0 // live members in non-empty entries before pos
	prev := -1  // previous non-empty entry position
	for pos := c.occ.NextSet(0); pos >= 0 && pos < L; pos = c.occ.NextSet(pos + 1) {
		// Candidate starts in (prev, pos] all see suffix = total-prefix
		// distinct packets; the earliest, prev+1, is valid iff it leaves
		// at least that many good slots.
		if prev+1 <= L-(c.total-prefix) {
			best = prev + 1
			break
		}
		prefix += len(c.lists[c.entries[pos].list].ids)
		prev = pos
	}
	if best < 0 {
		return nil
	}
	packets := c.evPackets[:0]
	for pos := c.occ.NextSet(best); pos >= 0 && pos < L; pos = c.occ.NextSet(pos + 1) {
		packets = append(packets, c.lists[c.entries[pos].list].ids...)
	}
	slices.Sort(packets)
	c.evPackets = packets
	c.ev = Event{Slot: now, WindowStart: c.entries[best].slot, Packets: packets}
	return &c.ev
}

// reset discards all pending broadcast information: decoding windows must
// be disjoint, so nothing before an event can be reused.
func (c *Channel) reset() {
	for pos := c.occ.NextSet(0); pos >= 0 && pos < len(c.entries); pos = c.occ.NextSet(pos + 1) {
		c.dropMembers(pos)
	}
	c.entries = c.entries[:0]
	c.firstAbs = 0
	c.total = 0
	c.occ.Zero()
}

// ResetTo returns the channel to its initial state for decoding
// threshold kappa and window cap maxWindow: the detector forgets all
// pending broadcast information and every counter is zeroed, exactly as
// New(kappa, maxWindow) builds a channel, but the storage stays — the
// last-occurrence pages, member lists, entry and occupancy buffers and
// scratch slices — so one channel serves run after run, at any κ,
// without reallocating.  New is ResetTo on a zero Channel.
func (c *Channel) ResetTo(kappa, maxWindow int) {
	if kappa < 1 {
		panic("channel: kappa must be at least 1")
	}
	if maxWindow < 0 {
		panic("channel: negative maxWindow")
	}
	c.kappa, c.maxWindow = kappa, maxWindow
	c.reset()
	c.lastOcc.Reset()
	c.stats = Stats{}
	c.prevTxs = c.prevTxs[:0]
	c.lastBad = false
}

// PendingGoodSlots returns the number of good slots currently tracked
// (since the last decoding event, after pruning).  Exposed for tests and
// diagnostics.
func (c *Channel) PendingGoodSlots() int { return len(c.entries) }

// PendingPackets returns the number of distinct packets with tracked
// broadcasts.  Exposed for tests and diagnostics.
func (c *Channel) PendingPackets() int { return c.lastOcc.Len() }
