package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/report"
)

// lease is the on-disk claim on a record identity.  It lives next to
// the record it guards (<id>.json.lease) and is meaningful only until
// Expires or until the record itself appears.
type lease struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_nano"`
}

// leasePath returns the lease file guarding a record identity.
func (s *Store) leasePath(id string) string { return s.Path(id) + ".lease" }

// validOwner gates lease owners: they are diagnostic labels that travel
// through URLs and log lines, so keep them short and printable.
func validOwner(owner string) bool {
	if owner == "" || len(owner) > 128 {
		return false
	}
	return !strings.ContainsAny(owner, " \t\n\r/")
}

// Claim takes (or renews) an advisory lease on a record identity, per
// the Backend contract: false when the record already exists or another
// owner holds an unexpired lease; true when the caller now holds it.
// A corrupt or expired lease file is treated as absent.
//
// The read-check-write is serialized within one process (goroutine
// workers sharing a Store get real mutual exclusion) but not across
// processes: two workers racing on one identity from different machines
// of a shared filesystem can both see no lease and both win.  That is
// deliberate slack, not a bug — records are content-addressed, so the
// loser's Put rewrites the winner's bytes.  The lease's job is to make
// duplicate execution rare, not impossible; crnserve, whose server
// serializes claims, makes it airtight for HTTP workers.
func (s *Store) Claim(id, owner string, ttl time.Duration) (bool, error) {
	s.claims.Lock()
	defer s.claims.Unlock()
	if !validID(id) {
		return false, fmt.Errorf("cache: malformed record id %q", id)
	}
	if !validOwner(owner) {
		return false, fmt.Errorf("cache: malformed lease owner %q", owner)
	}
	if ttl <= 0 {
		return false, fmt.Errorf("cache: non-positive lease ttl %v", ttl)
	}
	// The lease is read before the record is looked for.  Put renames the
	// record into place before it removes the lease, so a lease missing
	// because of a Put means the record is visible below; checked the
	// other way round, a whole Put could land between the two checks and
	// grant a claim on a completed cell.
	if data, err := os.ReadFile(s.leasePath(id)); err == nil {
		var l lease
		if json.Unmarshal(data, &l) == nil && l.Owner != owner && time.Now().UnixNano() < l.Expires {
			return false, nil // live foreign lease
		}
		// Corrupt, expired, or our own: fall through and (re)write.
	} else if !os.IsNotExist(err) {
		return false, fmt.Errorf("cache: %w", err)
	}
	if _, err := os.Stat(s.Path(id)); err == nil {
		return false, nil // already complete; nothing to claim
	} else if !os.IsNotExist(err) {
		return false, fmt.Errorf("cache: %w", err)
	}
	l := lease{Owner: owner, Expires: time.Now().Add(ttl).UnixNano()}
	data, err := json.Marshal(&l)
	if err != nil {
		return false, fmt.Errorf("cache: %w", err)
	}
	// Plain atomic write: leases are advisory hints, so losing one to a
	// power cut only costs a duplicate execution, and fsyncing every
	// claim would put a disk flush on the scheduling hot path.
	if err := report.SaveFile(s.leasePath(id), data); err != nil {
		return false, fmt.Errorf("cache: %w", err)
	}
	return true, nil
}

// List returns the identities of the records currently in the store,
// in ascending order.  Lease files and foreign files are skipped.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if validID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
