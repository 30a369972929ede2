package medium

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// TestParseSpecGrammar pins the full descriptor grammar: every valid
// spelling, its parsed Spec, and its canonical String.
func TestParseSpecGrammar(t *testing.T) {
	cases := []struct {
		desc  string
		want  Spec
		canon string
	}{
		{"", Spec{Model: "coded"}, "coded"},
		{"coded", Spec{Model: "coded"}, "coded"},
		{"coded:64", Spec{Model: "coded", Kappa: 64}, "coded:64"},
		{"coded:64/256", Spec{Model: "coded", Kappa: 64, MaxWindow: 256}, "coded:64/256"},
		{"classical", Spec{Model: "classical", CD: CDTernary}, "classical:ternary"},
		{"classical:none", Spec{Model: "classical", CD: CDNone}, "classical:none"},
		{"classical:binary", Spec{Model: "classical", CD: CDBinary}, "classical:binary"},
		{"classical:ternary", Spec{Model: "classical", CD: CDTernary}, "classical:ternary"},
		{"capture", Spec{Model: "capture"}, "capture"},
		{"capture:8", Spec{Model: "capture", Kappa: 8}, "capture:8"},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.desc)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.desc, err)
		}
		if got != c.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", c.desc, got, c.want)
		}
		if got.String() != c.canon {
			t.Fatalf("ParseSpec(%q).String() = %q, want %q", c.desc, got.String(), c.canon)
		}
	}
}

func TestParseSpecInvalid(t *testing.T) {
	bad := []string{
		"bogus", "coded:", "coded:x", "coded:0", "coded:-3",
		"coded:64/", "coded:64/0", "coded:64/x", "coded:64/-1",
		"classical:", "classical:quaternary", "classical:TERNARY",
		"capture:", "capture:0", "capture:x", "capture:8/2",
		"Coded", "CLASSICAL", ":", "coded:8:2", "jam", "coded ",
	}
	for _, desc := range bad {
		if s, err := ParseSpec(desc); err == nil {
			t.Fatalf("ParseSpec(%q) = %+v, want error", desc, s)
		}
	}
}

// TestSpecRoundTripProperty generates random Specs across the full
// grammar and checks ParseSpec(s.String()) == s, plus that every parsed
// spec's String is a fixed point (canonical form is canonical).
func TestSpecRoundTripProperty(t *testing.T) {
	r := rng.New(0xC0DEC)
	for i := 0; i < 2000; i++ {
		var s Spec
		switch r.Intn(3) {
		case 0:
			s = Spec{Model: "coded"}
			if r.Intn(2) == 1 {
				s.Kappa = 1 + r.Intn(1<<uint(r.Intn(20)))
				if r.Intn(2) == 1 {
					s.MaxWindow = 1 + r.Intn(1<<uint(r.Intn(20)))
				}
			}
		case 1:
			s = Spec{Model: "classical", CD: CD(r.Intn(3))}
		case 2:
			s = Spec{Model: "capture"}
			if r.Intn(2) == 1 {
				s.Kappa = 1 + r.Intn(1<<uint(r.Intn(20)))
			}
		}
		desc := s.String()
		got, err := ParseSpec(desc)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v (from %+v)", desc, err, s)
		}
		if got != s {
			t.Fatalf("round trip: %+v -> %q -> %+v", s, desc, got)
		}
		if got.String() != desc {
			t.Fatalf("String not a fixed point: %q vs %q", got.String(), desc)
		}
	}
}

// TestSpecBuild checks context-default resolution: embedded values win,
// zero fields inherit the Build arguments, and under-specified coded/
// capture media fail loudly instead of panicking.
func TestSpecBuild(t *testing.T) {
	build := func(desc string, kappa, maxWindow int) (Medium, error) {
		t.Helper()
		s, err := ParseSpec(desc)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", desc, err)
		}
		return s.Build(kappa, maxWindow)
	}

	m, err := build("coded", 8, 0)
	if err != nil || m.Kappa() != 8 || m.Name() != "coded" {
		t.Fatalf("coded context build: %v %v", m, err)
	}
	m, err = build("coded:64", 8, 0)
	if err != nil || m.Kappa() != 64 {
		t.Fatalf("embedded kappa should win: %v %v", m, err)
	}
	m, err = build("capture:4", 1, 0)
	if err != nil || m.Kappa() != 4 {
		t.Fatalf("capture embedded kappa: %v %v", m, err)
	}
	m, err = build("classical:none", 99, 77)
	if err != nil || m.Kappa() != 1 || m.Name() != "classical:none" {
		t.Fatalf("classical ignores context: %v %v", m, err)
	}
	if _, err = build("coded", 0, 0); err == nil {
		t.Fatal("coded with no kappa anywhere should error")
	}
	if _, err = build("capture", 0, 0); err == nil {
		t.Fatal("capture with no kappa anywhere should error")
	}
	if _, err := (Spec{Model: "nope"}).Build(1, 0); err == nil {
		t.Fatal("unknown model should error")
	}
	if _, err := (Spec{Model: "classical", CD: CD(9)}).Build(1, 0); err == nil {
		t.Fatal("invalid CD should error")
	}
	if _, err := (Spec{Model: "coded", Kappa: 4, MaxWindow: -2}).Build(0, 0); err == nil {
		t.Fatal("negative window cap should error")
	}
}

// TestNewMatchesSpecBuild pins that New is exactly ParseSpec+Build for
// every canonical model descriptor.
func TestNewMatchesSpecBuild(t *testing.T) {
	for _, desc := range Models {
		viaNew, err := New(desc, 4, 16)
		if err != nil {
			t.Fatalf("New(%q): %v", desc, err)
		}
		s, err := ParseSpec(desc)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", desc, err)
		}
		viaSpec, err := s.Build(4, 16)
		if err != nil {
			t.Fatalf("Build(%q): %v", desc, err)
		}
		if viaNew.Name() != viaSpec.Name() || viaNew.Kappa() != viaSpec.Kappa() {
			t.Fatalf("New(%q) = %s/κ%d, Spec build = %s/κ%d",
				desc, viaNew.Name(), viaNew.Kappa(), viaSpec.Name(), viaSpec.Kappa())
		}
	}
	if _, err := New("bogus", 1, 0); err == nil {
		t.Fatal("New(bogus) should error")
	}
}

// TestSpecMasksSilenceMatchesBuiltMedium pins that a Spec answers
// MasksSilence as the medium it builds does, for every model
// descriptor and every spelling of its arguments.
func TestSpecMasksSilenceMatchesBuiltMedium(t *testing.T) {
	descs := append([]string{"", "coded:8", "coded:8/32", "capture:8"}, Models...)
	for _, desc := range descs {
		s, err := ParseSpec(desc)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", desc, err)
		}
		m, err := s.Build(4, 16)
		if err != nil {
			t.Fatalf("Build(%q): %v", desc, err)
		}
		if got, want := s.MasksSilence(), MasksSilence(m); got != want {
			t.Errorf("ParseSpec(%q).MasksSilence() = %v, the built %s's = %v", desc, got, m.Name(), want)
		}
	}
}

func ExampleParseSpec() {
	s, _ := ParseSpec("coded:64")
	fmt.Println(s.Model, s.Kappa, s.String())
	// Output: coded 64 coded:64
}
