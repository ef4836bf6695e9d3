// Command perfbench is the repository's benchmark: one process that drives
// one workload through the program's public entry points, checks the
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer breakdown) as the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve_mix --seed 1 --seconds 36 --trace 0
//
// The workloads (serve_mix, swarm_2k, sweep_grid), their metrics and the
// reasons they were chosen are listed in BENCHMARK.json and layers.go.
//
// Every input is generated from -seed before timing starts. Timed phases
// run with GOMAXPROCS = nproc, at most nproc clients or workers and no
// obs.Registry attached, so the program's metrics-off path is measured.
// Set-up (object construction plus a fixed, seeded warm-up of real
// operations) is repeated setupRuns times and reported as its median.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times set-up is repeated per run; setup_s is the
// median, so one slow first build (page faults, cold caches) cannot set
// it.
const setupRuns = 5

// minTail is the fewest samples latency_ms_p90 may have beyond it; a
// full-size run with fewer fails.
const minTail = 10

// outDir is where spans and the host-stamped result are written,
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/out"

// runner is one set-up instance of a workload.
type runner interface {
	// phase runs the timed loop for d. With tr non-nil it is the traced
	// phase: spans go to tr and the per-layer numbers into the result.
	phase(d time.Duration, tr *tracer) (*phaseResult, error)
	// check verifies the outputs of every phase run so far and returns
	// one message per failed check.
	check() []string
	close()
}

// workload builds runners for one named workload. gen generates the
// seeded input set once, before any timing; setup builds the program's
// objects from it and runs the warm-up.
type workload struct {
	name  string
	gen   func(seed int64, d time.Duration, tiny bool) any
	setup func(inputs any) (runner, error)
}

var workloads = []workload{
	{"serve_mix", genServe, setupServe},
	{"swarm_2k", genSwarm, setupSwarm},
	{"sweep_grid", genSweep, setupSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve_mix, swarm_2k or sweep_grid")
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 36, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced phase and prints per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload serve_mix|swarm_2k|sweep_grid, -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

// report is everything one run produces.
type report struct {
	Stamp   stamp
	Correct bool
	Attempt int
	Failed  int
	Metrics []metric
	Notes   []string // human-readable lines: sample counts, failed checks
	spans   *tracer
}

type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed in the human report only
}

// run sets the workload up setupRuns times, runs its timed phase (and,
// traced, an untraced and a traced half), checks the outputs and gathers
// the metrics.
func run(w workload, seed int64, d time.Duration, traced, tiny bool) (*report, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	rep := &report{Stamp: hostStamp(w.name, seed, d, traced)}
	inputs := w.gen(seed, d, tiny)
	var (
		r      runner
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := w.setup(inputs)
		if err != nil {
			if r != nil {
				r.close()
			}
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r != nil {
			r.close()
		}
		r = next
	}
	defer r.close()
	setupS := median(setups)

	if !traced {
		runtime.GC()
		res, err := r.phase(d, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		checks := r.check()
		if _, _, beyond, _ := res.latencies(); !tiny && beyond < minTail {
			checks = append(checks, fmt.Sprintf("latency_ms_p90 has %d samples beyond it, fewer than %d", beyond, minTail))
		}
		rep.finish(res, checks)
		rep.Metrics = rep.endToEnd(res, setupS)
		rep.Notes = append(rep.Notes, fmt.Sprintf("setup_s runs=%v", setups))
		return rep, nil
	}

	runtime.GC()
	base, err := r.phase(d/2, nil)
	if err != nil {
		return nil, fmt.Errorf("%s untraced half: %w", w.name, err)
	}
	tr := newTracer()
	runtime.GC()
	res, err := r.phase(d/2, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced half: %w", w.name, err)
	}
	rep.finish(res, r.check())
	rep.Attempt += base.Attempted
	rep.Failed += base.Failed
	rep.Correct = rep.Correct && base.Failed == 0
	res.Layers["trace_overhead"] = res.Throughput() / base.Throughput()
	rep.Metrics = perLayer(w.name, res.Layers)
	rep.Notes = append(rep.Notes, fmt.Sprintf("trace: %d spans; untraced half %.3f ops/s, traced half %.3f ops/s",
		tr.len(), base.Throughput(), res.Throughput()))
	rep.spans = tr
	return rep, nil
}

// finish folds a phase and its checks into the report's pass/fail state.
func (rep *report) finish(res *phaseResult, failedChecks []string) {
	rep.Attempt = res.Attempted + len(failedChecks)
	rep.Failed = res.Failed + len(failedChecks)
	rep.Correct = rep.Failed == 0
	rep.Notes = append(rep.Notes, res.Notes...)
	for _, m := range failedChecks {
		rep.Notes = append(rep.Notes, "FAILED CHECK: "+m)
	}
}

// endToEnd derives the end-to-end metrics from the timed phase. The
// error rate counts failed operations and failed output checks; it is
// reported as success_rate because a metric that is 0 on every healthy
// run has no median to bound.
func (rep *report) endToEnd(res *phaseResult, setupS float64) []metric {
	p50, p90, _, note := res.latencies()
	rep.Notes = append(rep.Notes, note)
	return []metric{
		{"throughput_per_s", res.Throughput(), "1/s", ""},
		{"latency_ms_p50", p50, "ms", ""},
		{"latency_ms_p90", p90, "ms", ""},
		{"success_rate", 1 - float64(rep.Failed)/float64(max(rep.Attempt, 1)), "ratio", ""},
		{"delta", res.Delta, "m3", ""},
		{"setup_s", setupS, "s", ""},
		{"peak_heap_mb", res.PeakHeapMB(), "MB", ""},
		{"alloc_mb_per_op", res.AllocMBPerOp(), "MB", ""},
	}
}

// perLayer orders the traced run's layer metrics as layers.go lists them,
// with the end-to-end metric each should move. A layer the workload does
// not exercise reports 0, with the reason.
func perLayer(workload string, values map[string]float64) []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		note := "moves " + lm.Moves
		if ok, why := applicable(workload, lm.Name); !ok {
			note = "not measured here: " + why
		}
		out = append(out, metric{lm.Name, values[lm.Name], lm.Unit, note})
	}
	return out
}

// emit prints the human report, the host stamp and, last, the one-line
// JSON result, and writes the spans and the stamped result under outDir.
func emit(w io.Writer, rep *report) error {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v\n", rep.Stamp.Workload, rep.Stamp.Seed, rep.Stamp.Traced)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		metrics[m.Name] = val{m.Value, m.Unit}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", rep.Stamp.Workload, rep.Stamp.Seed, b2i(rep.Stamp.Traced))
	if rep.spans != nil {
		path := filepath.Join(outDir, base+".spans.jsonl")
		if err := rep.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "  spans written to %s\n", path)
	}
	stampLine, err := json.Marshal(struct {
		Stamp   stamp          `json:"stamp"`
		Notes   []string       `json:"notes"`
		Metrics map[string]val `json:"metrics"`
	}{rep.Stamp, rep.Notes, metrics})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, base+".result.json"), append(stampLine, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", stampLine)
	last, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Correct, max(rep.Attempt, 1), rep.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// median returns the middle of v (mean of the two middles for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank q-quantile of sorted s and the
// number of samples strictly beyond its rank.
func nearestRank(s []float64, q float64) (float64, int) {
	if len(s) == 0 {
		return 0, 0
	}
	r := int(math.Ceil(q * float64(len(s))))
	r = min(max(r, 1), len(s))
	return s[r-1], len(s) - r
}
