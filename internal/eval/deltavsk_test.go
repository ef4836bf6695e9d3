package eval_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/sweep"
)

// fig7Spec is the Fig. 7 sweep shape cmd/osd -sweep builds, at toy
// resolution on the forest reference field.
func fig7Spec(ks []int) sweep.Spec {
	return sweep.Spec{
		Name:        "fig7",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}},
		Ks:          ks,
		Rcs:         []float64{10},
		Seeds:       []int64{42},
		GridN:       40,
		DeltaN:      40,
		RandomDraws: 3,
	}
}

// fig7CSV runs the δ-vs-k sweep and renders it with WriteDeltaVsKCSV.
func fig7CSV(t *testing.T, ks []int, workers int) []byte {
	t.Helper()
	rep, err := sweep.Run(fig7Spec(ks), sweep.RunOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	rows, err := sweep.DeltaVsKRows(rep)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var buf bytes.Buffer
	if err := eval.WriteDeltaVsKCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaVsKDeterministicAcrossWorkers: the rendered Fig. 7 series must
// be byte-identical to the serial run for any worker count and
// GOMAXPROCS — every (k, draw) is independently seeded and collected by
// index, and the CSV prints floats with %g, so equal bytes mean equal bits.
func TestDeltaVsKDeterministicAcrossWorkers(t *testing.T) {
	ks := []int{10, 25, 40}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	want := fig7CSV(t, ks, 1)
	for _, v := range []struct{ procs, workers int }{{8, 1}, {1, 4}, {8, 4}, {8, 0}} {
		runtime.GOMAXPROCS(v.procs)
		if got := fig7CSV(t, ks, v.workers); !bytes.Equal(got, want) {
			t.Errorf("procs=%d workers=%d rows differ from serial baseline:\n%s\nvs\n%s",
				v.procs, v.workers, got, want)
		}
	}
}

// TestDeltaVsKErrors: a δ-vs-k sweep with no k is refused before any cell
// runs, so no empty series reaches the writers.
func TestDeltaVsKErrors(t *testing.T) {
	for _, ks := range [][]int{nil, {}, {0}} {
		if rep, err := sweep.Run(fig7Spec(ks), sweep.RunOptions{}); err == nil || rep != nil {
			t.Errorf("ks=%v: got report %v, err %v; want refusal", ks, rep, err)
		}
	}
}
