package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestSweepGolden drives the -sweep path in-process and compares its CSV
// byte for byte with testdata captured from the direct Fig. 7 loop this
// command ran before it moved onto the sweep engine. The CSV prints δ with
// %g, so a match is bit identity of every row.
func TestSweepGolden(t *testing.T) {
	ks, err := parseSweep("10:150:35")
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"fra", "lloyd"} {
		spec, err := fig7Spec(ks, 10, 40, 40, 5, 1, strat)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeSweep(&buf, spec, true, obs.NewRegistry()); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "sweep_"+strat+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: -sweep CSV differs from golden:\n%s\nwant:\n%s", strat, buf.Bytes(), want)
		}
	}
}

// TestFig7SpecRejectsZeros: the sweep engine reads zero draws as "no
// baseline" (a random δ of 0 in the output) and a zero lattice as its own
// default, so -draws, -grid and -delta-grid below 1 are errors.
func TestFig7SpecRejectsZeros(t *testing.T) {
	for _, c := range [][3]int{{0, 40, 40}, {-3, 40, 40}, {5, 0, 40}, {5, 40, 0}} {
		if _, err := fig7Spec([]int{10}, 10, c[1], c[2], c[0], 1, "fra"); err == nil {
			t.Errorf("draws=%d grid=%d delta-grid=%d accepted", c[0], c[1], c[2])
		}
	}
	spec, err := fig7Spec([]int{10, 20}, 5, 30, 40, 2, 7, "lloyd")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RandomDraws != 2 || spec.Rcs[0] != 5 || spec.GridN != 30 || spec.DeltaN != 40 ||
		spec.Seeds[0] != 7 || spec.Strategies[0] != "lloyd" || len(spec.Ks) != 2 {
		t.Errorf("flags not mapped: %+v", spec)
	}
}

func TestParseSweep(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1:10:3", []int{1, 4, 7, 10}, false},
		{"5:5:1", []int{5}, false},
		{"1:200:50", []int{1, 51, 101, 151}, false},
		{"10:1:1", nil, true},
		{"0:5:1", nil, true},
		{"1:5:0", nil, true},
		{"1:5", nil, true},
		{"a:5:1", nil, true},
		{"", nil, true},
	}
	for _, tc := range tests {
		got, err := parseSweep(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}
