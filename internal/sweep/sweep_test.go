package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// hundredCellSpec is the acceptance grid: 100 static cells at toy
// resolution — 2 fields × 5 ks × 2 rcs × 5 seeds.
func hundredCellSpec() Spec {
	s := Spec{
		Name:        "hundred",
		Fields:      []FieldSpec{{Kind: "peaks"}, {Kind: "ridge"}},
		Ks:          []int{2, 4, 6, 8, 10},
		Rcs:         []float64{30, 60},
		Seeds:       []int64{1, 2, 3, 4, 5},
		GridN:       12,
		DeltaN:      12,
		RandomDraws: 1,
	}
	s.Normalize()
	return s
}

// mobileSpec exercises the CMA-under-faults phase.
func mobileSpec() Spec {
	s := Spec{
		Name:   "mobile",
		Fields: []FieldSpec{{Kind: "forest"}},
		Ks:     []int{12},
		Rcs:    []float64{10},
		Faults: []fault.ProfileSpec{{}, {Rate: 0.4}},
		Seeds:  []int64{7},
		GridN:  16,
		DeltaN: 16,
		Slots:  5,
	}
	s.Normalize()
	return s
}

func renderJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestWorkersBitIdentical is the sharding determinism contract: a
// 100-cell spec aggregated under any worker count and any GOMAXPROCS is
// byte-identical to the serial run.
func TestWorkersBitIdentical(t *testing.T) {
	spec := hundredCellSpec()
	if n := spec.NumCells(); n != 100 {
		t.Fatalf("grid has %d cells, want 100", n)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	serial, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if serial.Failed != 0 || serial.Computed != 100 {
		t.Fatalf("serial report: %+v", serial)
	}
	wantJSON := renderJSON(t, serial)
	var wantCSV bytes.Buffer
	if err := WriteCSV(&wantCSV, serial); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	for _, v := range []struct{ procs, workers int }{{8, 1}, {1, 8}, {8, 8}, {8, 0}} {
		runtime.GOMAXPROCS(v.procs)
		rep, err := Run(spec, RunOptions{Workers: v.workers})
		if err != nil {
			t.Fatalf("procs=%d workers=%d: %v", v.procs, v.workers, err)
		}
		if got := renderJSON(t, rep); !bytes.Equal(got, wantJSON) {
			t.Fatalf("procs=%d workers=%d output differs from serial:\n%s\nvs\n%s", v.procs, v.workers, got, wantJSON)
		}
		var csv bytes.Buffer
		if err := WriteCSV(&csv, rep); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if !bytes.Equal(csv.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("procs=%d workers=%d: CSV output differs from serial", v.procs, v.workers)
		}
	}
}

// TestFig7Rows is the Fig. 7 headline on the forest at reduced
// resolution, through the same spec shape cmd/osd -sweep and cmd/evalall
// run: FRA spends exactly k nodes on refinement plus relays, beats random
// deployment at k = 40, and both curves fall with k.
func TestFig7Rows(t *testing.T) {
	rep, err := Run(Spec{
		Name:        "fig7",
		Fields:      []FieldSpec{{Kind: "forest"}},
		Ks:          []int{10, 40, 80},
		Rcs:         []float64{10},
		GridN:       25,
		DeltaN:      25,
		RandomDraws: 2,
	}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeltaVsKRows(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Refined+r.Relays != r.K {
			t.Errorf("k=%d: refined+relays = %d", r.K, r.Refined+r.Relays)
		}
	}
	if rows[1].FRA >= rows[1].Random {
		t.Errorf("k=40: FRA %v not below random %v", rows[1].FRA, rows[1].Random)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].FRA >= rows[i-1].FRA || rows[i].Random >= rows[i-1].Random {
			t.Errorf("δ not decreasing from k=%d to k=%d: FRA %v -> %v, random %v -> %v",
				rows[i-1].K, rows[i].K, rows[i-1].FRA, rows[i].FRA, rows[i-1].Random, rows[i].Random)
		}
	}
}

// TestDeltaVsKRowsFailsLoudly: a failed cell or an incomplete report must
// not project to rows of zeros that print as data.
func TestDeltaVsKRowsFailsLoudly(t *testing.T) {
	ok := Result{Index: 0, K: 10, Delta: 5, DeltaRandom: 7, Refined: 6, Relays: 4, Connected: true}
	bad := Result{Index: 1, K: 20, Err: "fra: boom"}
	rows, err := DeltaVsKRows(&Report{Name: "x", Total: 1, Cells: []Result{ok}})
	if err != nil || len(rows) != 1 || rows[0].FRA != 5 || rows[0].Random != 7 || rows[0].Refined+rows[0].Relays != 10 {
		t.Fatalf("good report: rows=%+v err=%v", rows, err)
	}
	if _, err := DeltaVsKRows(&Report{Name: "x", Total: 2, Failed: 1, Cells: []Result{ok, bad}}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("failed cell: err = %v", err)
	}
	if _, err := DeltaVsKRows(&Report{Name: "x", Total: 2, Cells: []Result{ok}}); err == nil {
		t.Error("incomplete report accepted")
	}
}

// TestResumeMatchesUninterrupted interrupts a sweep mid-grid (the
// deterministic MaxCells interruption), resumes it from the checkpoint,
// and demands byte-identical aggregated output — with the resumed cells
// replayed, not recomputed.
func TestResumeMatchesUninterrupted(t *testing.T) {
	spec := hundredCellSpec()
	full, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := renderJSON(t, full)

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	part, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, MaxCells: 37})
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	if !part.Interrupted {
		t.Fatal("partial run not marked interrupted")
	}
	if len(part.Cells) != 37 {
		t.Fatalf("partial run finished %d cells, want 37", len(part.Cells))
	}

	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed.Resumed != 37 || resumed.Computed != 63 {
		t.Fatalf("resumed=%d computed=%d, want 37/63", resumed.Resumed, resumed.Computed)
	}
	if got := renderJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted run")
	}

	// A second resume replays everything and recomputes nothing.
	again, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if again.Resumed != 100 || again.Computed != 0 {
		t.Fatalf("second resume: resumed=%d computed=%d, want 100/0", again.Resumed, again.Computed)
	}
	if got := renderJSON(t, again); !bytes.Equal(got, want) {
		t.Fatal("fully-replayed output differs from uninterrupted run")
	}
}

// TestMobilePhaseDeterministic runs the fault-injected mobile phase at
// two worker counts and checks the grid covers both fault profiles.
func TestMobilePhaseDeterministic(t *testing.T) {
	spec := mobileSpec()
	a, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := Run(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Equal(renderJSON(t, a), renderJSON(t, b)) {
		t.Fatal("mobile sweep differs between worker counts")
	}
	if len(a.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(a.Cells))
	}
	for _, r := range a.Cells {
		if r.Mobile == nil {
			t.Fatalf("cell %d missing mobile phase", r.Index)
		}
	}
	clean, faulty := a.Cells[0], a.Cells[1]
	if clean.FaultRate != 0 || faulty.FaultRate != 0.4 {
		t.Fatalf("unexpected cell order: rates %g, %g", clean.FaultRate, faulty.FaultRate)
	}
	if clean.Mobile.Deaths != 0 {
		t.Fatalf("fault-free cell recorded %d deaths", clean.Mobile.Deaths)
	}
	if faulty.Mobile.Deaths == 0 {
		t.Fatal("rate-0.4 cell recorded no deaths")
	}
}

// TestCheckpointTornLine simulates a process killed mid-write: the torn
// final line is discarded on resume and only its cell recomputes.
func TestCheckpointTornLine(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 10}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	f, err := os.OpenFile(ckpt, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"digest":"dead","result":{"index":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume over torn checkpoint: %v", err)
	}
	if resumed.Resumed != 10 || len(resumed.Cells) != 100 {
		t.Fatalf("resumed=%d cells=%d, want 10/100", resumed.Resumed, len(resumed.Cells))
	}
}

// TestResumeSpecMismatch: a checkpoint written by one spec must be
// refused when -resume is attempted against a different spec, instead
// of silently mixing grids via digest misses.
func TestResumeSpecMismatch(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 10}); err != nil {
		t.Fatalf("partial run: %v", err)
	}

	changed := spec
	changed.DeltaN = 24
	changed.Normalize()
	_, err := Run(changed, RunOptions{Checkpoint: ckpt, Resume: true})
	if err == nil {
		t.Fatal("resume against a mismatched spec succeeded")
	}
	if !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("unhelpful refusal message: %v", err)
	}

	// The matching spec still resumes fine afterwards: refusal must not
	// have clobbered the checkpoint.
	resumed, err := Run(spec, RunOptions{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume with matching spec: %v", err)
	}
	if resumed.Resumed != 10 {
		t.Fatalf("resumed=%d, want 10", resumed.Resumed)
	}
}

// TestCheckpointMidFileCorruption flips bytes in the middle of a
// checkpoint — a corrupted payload, a sum mismatch, and an unparsable
// line — and requires resume to skip exactly those cells with logged
// warnings while the aggregate stays byte-identical to the clean run.
func TestCheckpointMidFileCorruption(t *testing.T) {
	spec := hundredCellSpec()
	full, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := renderJSON(t, full)

	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, MaxCells: 20}); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 21 { // header + 20 cells
		t.Fatalf("checkpoint has %d lines, want 21", len(lines))
	}
	// Line 5: perturb the result payload bytes (sum now mismatches).
	lines[5] = strings.Replace(lines[5], `"result":{`, `"result":{ `, 1)
	// Line 9: truncate mid-line (unparsable, but not the final line).
	lines[9] = lines[9][:len(lines[9])/2]
	// Line 13: rewrite the sum itself.
	lines[13] = strings.Replace(lines[13], `"sum":"`, `"sum":"0`, 1)
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true, Log: &log})
	if err != nil {
		t.Fatalf("resume over corrupted checkpoint: %v", err)
	}
	if resumed.Resumed != 17 || resumed.Computed != 83 {
		t.Fatalf("resumed=%d computed=%d, want 17/83", resumed.Resumed, resumed.Computed)
	}
	if got := renderJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resume over corrupted checkpoint is not byte-identical to clean run")
	}
	warns := log.String()
	for _, frag := range []string{"integrity sum mismatch", "unparsable"} {
		if !strings.Contains(warns, frag) {
			t.Errorf("resume log missing %q warning:\n%s", frag, warns)
		}
	}
}

// TestDigestInvalidation: editing a knob that changes results must orphan
// the old checkpoint entries; editing nothing must not.
func TestDigestInvalidation(t *testing.T) {
	spec := hundredCellSpec()
	cells := spec.Cells()
	d0 := spec.Digest(cells[0])
	if d1 := spec.Digest(cells[0]); d1 != d0 {
		t.Fatalf("digest not stable: %s vs %s", d0, d1)
	}
	changed := spec
	changed.DeltaN = 24
	if spec.Digest(cells[0]) == changed.Digest(cells[0]) {
		t.Fatal("DeltaN change did not change the digest")
	}
	renamed := spec
	renamed.Name = "other"
	if spec.Digest(cells[0]) != renamed.Digest(cells[0]) {
		t.Fatal("spec name leaked into the digest")
	}
	seen := map[string]bool{}
	for _, c := range cells {
		d := spec.Digest(c)
		if seen[d] {
			t.Fatalf("digest collision at cell %d", c.Index)
		}
		seen[d] = true
	}
}

// TestCellFailureIsolation drives runCell into its error paths directly:
// a failed cell reports Err and never panics the caller.
func TestCellFailureIsolation(t *testing.T) {
	spec := hundredCellSpec()
	bad := Cell{Field: FieldSpec{Kind: "volcano"}, K: 4, Rc: 30, Seed: 1}
	r := RunCell(&spec, bad, nil)
	if r.Err == "" {
		t.Fatal("unknown field kind did not fail the cell")
	}
	broken := spec
	broken.GridN = -1 // bypasses Normalize: FRA must reject it
	r = RunCell(&broken, spec.Cells()[0], nil)
	if r.Err == "" {
		t.Fatal("invalid GridN did not fail the cell")
	}
}

// TestSpecValidation covers the load-time guardrails.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"empty grid", `{"name":"x","fields":[],"ks":[1],"rcs":[10]}`},
		{"no k", `{"fields":[{"kind":"peaks"}],"ks":[],"rcs":[10]}`},
		{"bad k", `{"fields":[{"kind":"peaks"}],"ks":[0],"rcs":[10]}`},
		{"bad rc", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[-1]}`},
		{"bad kind", `{"fields":[{"kind":"lava"}],"ks":[5],"rcs":[10]}`},
		{"unknown knob", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"wrkers":4}`},
		{"fault without slots", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"faults":[{"rate":0.5}]}`},
		{"fault rate too high", `{"fields":[{"kind":"peaks"}],"ks":[5],"rcs":[10],"slots":5,"faults":[{"rate":1.5}]}`},
	}
	for _, tc := range cases {
		if _, err := LoadSpec(strings.NewReader(tc.json)); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
	good := `{"name":"ok","fields":[{"kind":"forest","seed":3}],"ks":[5,10],"rcs":[10],"slots":4,"faults":[{"rate":0.2}]}`
	s, err := LoadSpec(strings.NewReader(good))
	if err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if s.GridN != 50 || s.DeltaN != 50 || len(s.Seeds) != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.NumCells() != 2 {
		t.Fatalf("NumCells=%d, want 2", s.NumCells())
	}
}

// TestExampleSpecRuns keeps the worked example from the README and
// cmd/sweep -example genuinely runnable, with every axis exercised.
func TestExampleSpecRuns(t *testing.T) {
	spec := ExampleSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("example spec invalid: %v", err)
	}
	if testing.Short() {
		t.Skip("example run skipped in -short")
	}
	reg := obs.NewRegistry()
	rep, err := Run(spec, RunOptions{Workers: 4, Metrics: reg})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Cells) != spec.NumCells() || rep.Failed != 0 {
		t.Fatalf("report: %+v", rep)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sweep_cells_completed_total"]; got != int64(spec.NumCells()) {
		t.Fatalf("sweep_cells_completed_total=%d, want %d", got, spec.NumCells())
	}
	if snap.Histograms["sweep_cell_seconds"].Count != int64(spec.NumCells()) {
		t.Fatal("cell wall-time histogram missed cells")
	}
	var tbl bytes.Buffer
	if err := WriteTable(&tbl, rep); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	if !strings.Contains(tbl.String(), "δ_end") {
		t.Fatal("mobile columns missing from table")
	}
}

// TestStopChannel interrupts a run via the Stop channel and resumes it.
func TestStopChannel(t *testing.T) {
	spec := hundredCellSpec()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	stop := make(chan struct{})
	close(stop) // stop before the first pick: everything remains pending
	rep, err := Run(spec, RunOptions{Workers: 2, Checkpoint: ckpt, Stop: stop})
	if err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if !rep.Interrupted {
		t.Fatal("stopped run not marked interrupted")
	}
	resumed, err := Run(spec, RunOptions{Workers: 4, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(resumed.Cells) != 100 || resumed.Interrupted {
		t.Fatalf("resume incomplete: %+v", resumed)
	}
}
