package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// SchemaVersion names the engine semantics cell identities are minted
// under.  Bump it whenever a change moves simulation results for
// unchanged specs (engine semantics, seed derivation, CellSummary
// shape): every cached cell and shard artifact from the old version
// stops matching and is re-executed rather than silently merged.
const SchemaVersion = "crn-sweep/1"

// Shard selects a 1-based slice k/N of a grid's cells.  The zero value
// means "the whole grid".  Cells are dealt round-robin along the
// canonical expansion order — skip rules have already been applied by
// Expand, so the N shards are balanced to within one cell and their
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

// Indices returns the positions (into the canonical expansion of total
// cells) this shard owns, in ascending order.
func (sh Shard) Indices(total int) []int {
	if sh.IsAll() {
		idx := make([]int, total)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	var idx []int
	for i := sh.Index - 1; i < total; i += sh.Count {
		idx = append(idx, i)
	}
	return idx
}

// Hash returns the spec's content identity: a hex SHA-256 of the
// schema version plus the normalized spec's JSON.  Two sweeps merge (or
// share cache records, or gate CI) only when their hashes agree.  The
// spec must already be validated (Validate normalizes the axis
// defaults); Hash validates a copy defensively.
func (s *Spec) Hash() (string, error) {
	norm := *s
	if err := norm.Validate(); err != nil {
		return "", err
	}
	data, err := json.Marshal(&norm)
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// jobSeeds derives the full grid's flattened per-trial seed list —
// len(cells) × Trials seeds, assigned along canonical expansion order
// exactly as an unsharded run assigns them.  Shard and resume execution
// index into this list, which is why their artifacts are byte-identical
// to unsharded runs.
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

// IndexedCell is one computed cell tagged with its position in the
// canonical expansion and its content identity — the unit shard
// artifacts and cache records are made of.
type IndexedCell struct {
	// Index is the cell's position in the spec's canonical expansion.
	Index int `json:"index"`
	// ID is the cell's content identity (see the cell-identity hash in
	// DESIGN.md §6.2).
	ID string `json:"id"`
	// Cell is the cell's aggregated summary.
	Cell CellSummary `json:"cell"`
}

// ShardResult is the artifact of one shard's execution: enough identity
// (schema version, spec hash, normalized spec, shard coordinates, total
// cell count) for Merge to verify that a set of shard files belongs to
// one grid and covers it exactly.
type ShardResult struct {
	SchemaVersion string        `json:"schema_version"`
	SpecHash      string        `json:"spec_hash"`
	Spec          Spec          `json:"spec"`
	Shard         Shard         `json:"shard"`
	TotalCells    int           `json:"total_cells"`
	Cells         []IndexedCell `json:"cells"`
}

// JSON renders the shard artifact as indented, deterministic JSON.
func (r *ShardResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseShardResult decodes a shard artifact.
func ParseShardResult(data []byte) (*ShardResult, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r ShardResult
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("sweep: bad shard artifact: %w", err)
	}
	return &r, nil
}

// Merge combines shard artifacts back into the full Grid, verifying the
// byte-equality contract's preconditions: every shard carries the
// current schema version and the same spec hash, the union of their
// cells is exactly the full expansion (no gaps, no duplicates), and
// every cell's content identity matches the one the spec derives for
// that position.  The returned Grid renders byte-identically to an
// unsharded run of the same spec.
func Merge(shards []*ShardResult) (*Grid, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: merge of zero shards")
	}
	first := shards[0]
	if first.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("sweep: shard %s has schema version %q, this build writes %q",
			first.Shard, first.SchemaVersion, SchemaVersion)
	}
	spec := first.Spec
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wantHash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	if first.SpecHash != wantHash {
		return nil, fmt.Errorf("sweep: shard %s spec hash %.12s does not match its own spec (%.12s): artifact tampered or stale",
			first.Shard, first.SpecHash, wantHash)
	}
	p := newPlan(&spec)
	cells := p.cells
	merged := make([]CellSummary, len(cells))
	seen := make([]bool, len(cells))
	for _, sh := range shards {
		if sh.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("sweep: shard %s has schema version %q, this build writes %q",
				sh.Shard, sh.SchemaVersion, SchemaVersion)
		}
		if sh.SpecHash != wantHash {
			return nil, fmt.Errorf("sweep: spec hash mismatch: shard %s ran %.12s…, shard %s ran %.12s… (different specs cannot merge)",
				first.Shard, wantHash, sh.Shard, sh.SpecHash)
		}
		if sh.TotalCells != len(cells) {
			return nil, fmt.Errorf("sweep: shard %s reports %d total cells, spec expands to %d",
				sh.Shard, sh.TotalCells, len(cells))
		}
		for i := range sh.Cells {
			c := &sh.Cells[i]
			if c.Index < 0 || c.Index >= len(cells) {
				return nil, fmt.Errorf("sweep: shard %s cell index %d outside grid of %d", sh.Shard, c.Index, len(cells))
			}
			if seen[c.Index] {
				return nil, fmt.Errorf("sweep: cell %d appears in more than one shard (overlapping or duplicate shard files)", c.Index)
			}
			if want := p.ids[c.Index]; c.ID != want {
				return nil, fmt.Errorf("sweep: shard %s cell %d (%s) identity %.12s… does not match the spec's %.12s…",
					sh.Shard, c.Index, cells[c.Index].Key(), c.ID, want)
			}
			seen[c.Index] = true
			merged[c.Index] = c.Cell
		}
	}
	firstMissing, missing := -1, 0
	for i, ok := range seen {
		if !ok {
			if firstMissing < 0 {
				firstMissing = i
			}
			missing++
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("sweep: merge covers %d of %d cells; first missing cell %d (%s) — a shard file is absent or incomplete",
			len(cells)-missing, len(cells), firstMissing, cells[firstMissing].Key())
	}
	return &Grid{Spec: spec, Cells: merged}, nil
}
