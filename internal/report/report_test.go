package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Results", "name", "value", "ratio")
	tb.AddRow("alpha", 42, 0.12345)
	tb.AddRow("beta-long-name", 7, 1234.5678)
	out := tb.String()
	if !strings.Contains(out, "Results") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: 'value' column starts at the same offset in all rows.
	hIdx := strings.Index(lines[1], "value")
	r1Idx := strings.Index(lines[3], "42")
	if hIdx != r1Idx {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		3:         "3",
		1234.5678: "1234.6",
		0.12345:   "0.1235",
		0.00012:   "0.00012",
	}
	for in, want := range cases {
		if got := formatCell(in); got != want {
			t.Fatalf("formatCell(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatCell(float32(2)); got != "2" {
		t.Fatalf("float32 cell %q", got)
	}
	if got := formatCell("s"); got != "s" {
		t.Fatalf("string cell %q", got)
	}
	if got := formatCell(int64(9)); got != "9" {
		t.Fatalf("int cell %q", got)
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x,y", `quote"inside`)
	tb.AddRow(1, 2)
	csv := tb.CSV()
	want := "a,b\n\"x,y\",\"quote\"\"inside\"\n1,2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestSaveCSV(t *testing.T) {
	dir := t.TempDir()
	tb := NewTable("T", "a")
	tb.AddRow(5)
	if err := tb.SaveCSV(filepath.Join(dir, "sub"), "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "sub", "test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\n5\n" {
		t.Fatalf("file contents %q", data)
	}
}

func TestRowsLongerThanHeader(t *testing.T) {
	tb := NewTable("T", "a")
	tb.AddRow(1, 2, 3)
	out := tb.String()
	if !strings.Contains(out, "3") {
		t.Fatalf("extra cells dropped:\n%s", out)
	}
}

func TestSeriesCSV(t *testing.T) {
	got := SeriesCSV("slot", "backlog", []int64{0, 5}, []float64{1, 2.5})
	want := "slot,backlog\n0,1\n5,2.5\n"
	if got != want {
		t.Fatalf("SeriesCSV = %q, want %q", got, want)
	}
}

func TestSeriesCSVMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SeriesCSV("a", "b", []int64{1}, nil)
}

func TestSaveSeriesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trace.csv")
	if err := SaveSeriesCSV(path, "t", "v", []int64{1}, []float64{9}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "t,v\n1,9\n" {
		t.Fatalf("contents %q", data)
	}
}

func TestSaveFileAtomicReplaceAndNoDebris(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := SaveFile(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Overwriting must fully replace the old content...
	if err := SaveFile(path, []byte("second, longer content")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "second, longer content" {
		t.Fatalf("contents %q, %v", data, err)
	}
	// ...and leave no temporary files behind (the rename is the commit).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "artifact.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents %v, want just artifact.json", names)
	}
	// Artifacts must be world-readable like the old non-atomic writers'.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm&0o044 != 0o044 {
		t.Fatalf("artifact permissions %v not world-readable", perm)
	}
}

func TestSaveJSONCreatesParentsAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "out.json")
	if err := SaveJSON(path, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\n  \"x\": 1\n}\n" {
		t.Fatalf("contents %q", data)
	}
}
