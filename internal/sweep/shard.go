package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// SchemaVersion names the engine semantics cell identities are minted
// under.  Bump it whenever a change moves simulation results for
// unchanged specs (engine semantics, seed derivation, CellSummary
// shape): every cell record from the old version stops matching and is
// re-executed rather than silently reused.
const SchemaVersion = "crn-sweep/1"

// Shard selects a 1-based slice k/N of a grid's cells: set as
// Options.Shard, it restricts a worker's claims to that slice.  The
// zero value means "the whole grid".  Cells are dealt round-robin along
// the canonical expansion order — skip rules have already been applied
// by Expand, so the N shards are balanced to within one cell and their
// union is exactly the full grid.
type Shard struct {
	Index int `json:"index"` // 1-based shard number, 1 ≤ Index ≤ Count
	Count int `json:"count"` // total number of shards
}

// IsAll reports whether the shard selects the whole grid.
func (sh Shard) IsAll() bool { return sh == Shard{} }

// String renders the shard as the k/N form ParseShard accepts.
func (sh Shard) String() string {
	if sh.IsAll() {
		return "all"
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// Validate rejects malformed shards (the zero value is valid: whole grid).
func (sh Shard) Validate() error {
	if sh.IsAll() {
		return nil
	}
	if sh.Count < 1 {
		return fmt.Errorf("sweep: shard count %d < 1", sh.Count)
	}
	if sh.Index < 1 || sh.Index > sh.Count {
		return fmt.Errorf("sweep: shard index %d outside 1..%d", sh.Index, sh.Count)
	}
	return nil
}

// ParseShard decodes a "k/N" shard descriptor with 1 ≤ k ≤ N.
func ParseShard(desc string) (Shard, error) {
	slash := strings.IndexByte(desc, '/')
	if slash < 0 {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want k/N, e.g. 2/4)", desc)
	}
	k, err1 := strconv.Atoi(desc[:slash])
	n, err2 := strconv.Atoi(desc[slash+1:])
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want k/N, e.g. 2/4)", desc)
	}
	sh := Shard{Index: k, Count: n}
	if sh.IsAll() || sh.Validate() != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want k/N with 1 ≤ k ≤ N)", desc)
	}
	return sh, nil
}

// owns reports whether the shard holds cell i of the canonical
// expansion.  The zero value owns every cell.
func (sh Shard) owns(i int) bool { return sh.IsAll() || i%sh.Count == sh.Index-1 }

// jobSeeds derives the full grid's flattened per-trial seed list —
// len(cells) × Trials seeds, assigned along canonical expansion order
// exactly as an unsharded run assigns them.  Shard workers and resumed
// runs index into this list, which is why their records are
// byte-identical to an unsharded run's.
func (s *Spec) jobSeeds(cellCount int) []uint64 {
	return sim.TrialSeeds(cellCount*s.Trials, s.Seed)
}

// cellID mints the content identity of one cell: a hex SHA-256 over the
// engine schema version, the spec-normalized scenario key, every
// engine knob that shapes a cell's execution beyond its scenario
// coordinates, and the cell's derived trial seeds.  The seeds fold in
// the base seed, the trial count, and the cell's position in the grid —
// so reshaping the grid (which reseeds trials) invalidates exactly the
// cells whose seeds moved, and a schema bump invalidates everything.
func cellID(sc Scenario, spec *Spec, seeds []uint64) string {
	h := sha256.New()
	sep := []byte{0}
	h.Write([]byte(SchemaVersion))
	h.Write(sep)
	h.Write([]byte(sc.Key()))
	h.Write(sep)
	fmt.Fprintf(h, "horizon=%d drain=%t drainlimit=%d maxwindow=%d latencysamples=%d batchn=%d burstwindow=%d alohap=%g",
		spec.Horizon, !spec.NoDrain, spec.DrainLimit, spec.MaxWindow,
		spec.LatencySamples, spec.BatchN, spec.BurstWindow, spec.AlohaP)
	h.Write(sep)
	var buf [8]byte
	for _, seed := range seeds {
		binary.LittleEndian.PutUint64(buf[:], seed)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
