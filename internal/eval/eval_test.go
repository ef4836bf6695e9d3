package eval

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/sim"
)

func refField() field.Field {
	return field.NewForest(field.DefaultForestConfig()).Reference()
}

func TestDeltaVsTime(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	w, err := sim.NewWorld(forest, field.GridLayout(forest.Bounds(), 64), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaVsTime(w, 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // initial row + 5 slots
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].T != 0 {
		t.Errorf("first row T = %v", rows[0].T)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].T != float64(i) {
			t.Errorf("row %d T = %v", i, rows[i].T)
		}
		if rows[i].Delta <= 0 {
			t.Errorf("row %d δ = %v", i, rows[i].Delta)
		}
	}
}

func TestDeltaVsTimeBadParams(t *testing.T) {
	forest := field.NewForest(field.DefaultForestConfig())
	w, err := sim.NewWorld(forest, field.GridLayout(forest.Bounds(), 4), sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeltaVsTime(w, 0, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
	if _, err := DeltaVsTime(w, 5, 0); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestConvergenceTime(t *testing.T) {
	rows := []DeltaVsTimeRow{
		{T: 0},
		{T: 1, MeanDisplacement: 0.9},
		{T: 2, MeanDisplacement: 0.5},
		{T: 3, MeanDisplacement: 0.05},
		{T: 4, MeanDisplacement: 0.04},
	}
	conv, ok := ConvergenceTime(rows, 0.1)
	if !ok || conv != 3 {
		t.Errorf("convergence = %v/%v, want 3/true", conv, ok)
	}
	// A late burst of movement resets convergence.
	rows = append(rows, DeltaVsTimeRow{T: 5, MeanDisplacement: 0.8})
	if _, ok := ConvergenceTime(rows, 0.1); ok {
		t.Error("series with late movement reported converged")
	}
	if _, ok := ConvergenceTime(nil, 0.1); ok {
		t.Error("empty series reported converged")
	}
}

func TestConvergenceTimeEmpty(t *testing.T) {
	if tm, ok := ConvergenceTime(nil, 0.5); ok || tm != 0 {
		t.Errorf("ConvergenceTime(nil) = (%v,%v), want (0,false)", tm, ok)
	}
}

func TestCompareCWD(t *testing.T) {
	f := field.Peaks(geom.Square(100))
	opts := core.DefaultCWDOptions(16)
	opts.GridN = 30
	opts.Iterations = 15
	rows, err := CompareCWD(f, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pattern != "uniform" || rows[1].Pattern != "cwd" {
		t.Errorf("patterns = %s,%s", rows[0].Pattern, rows[1].Pattern)
	}
	if rows[1].TotalCurvature <= rows[0].TotalCurvature {
		t.Errorf("CWD Σ|G| %v not above uniform %v",
			rows[1].TotalCurvature, rows[0].TotalCurvature)
	}
	if rows[1].Delta >= rows[0].Delta {
		t.Errorf("CWD δ %v not below uniform %v", rows[1].Delta, rows[0].Delta)
	}
}

func TestTableWriters(t *testing.T) {
	kRows := []DeltaVsKRow{{K: 10, FRA: 1.5, Random: 2.5, Refined: 6, Relays: 4, Connected: true}}
	tRows := []DeltaVsTimeRow{{T: 1, Delta: 3.5, Moved: 9, MeanDisplacement: 0.25, Connected: true}}
	cRows := []CWDRow{{Pattern: "cwd", Delta: 1, TotalCurvature: 2, BalanceResidual: 3, MeanNNDist: 4}}

	var buf bytes.Buffer
	if err := WriteDeltaVsKTable(&buf, kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "δ(FRA)") || !strings.Contains(buf.String(), "10") {
		t.Errorf("table = %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsKCSV(&buf, kRows); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "k,delta_fra,") {
		t.Errorf("csv = %q", buf.String())
	}
	if !strings.Contains(buf.String(), "10,1.5,2.5,6,4,true") {
		t.Errorf("csv row missing: %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsTimeTable(&buf, tRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t(min)") {
		t.Errorf("table = %q", buf.String())
	}

	buf.Reset()
	if err := WriteDeltaVsTimeCSV(&buf, tRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,3.5,9,0.25,true") {
		t.Errorf("csv = %q", buf.String())
	}

	buf.Reset()
	if err := WriteCWDTable(&buf, cRows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cwd") {
		t.Errorf("table = %q", buf.String())
	}
}
