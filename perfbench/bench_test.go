package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// inputBytes serializes a workload's generated inputs, so equality of
// input streams can be checked byte for byte.
func inputBytes(t *testing.T, in any) []byte {
	t.Helper()
	var v any
	switch in := in.(type) {
	case *serveInputs:
		v = []any{in.streams, in.warm}
	case *swarmInputs:
		v = []any{in.seed, in.pos}
	case *sweepInputs:
		v = []any{in.spec, in.warm}
	default:
		t.Fatalf("unknown inputs %T", in)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSeedFixesTheInputStream(t *testing.T) {
	for _, w := range workloads {
		for _, tiny := range []bool{true, false} {
			a := inputBytes(t, w.gen(7, 2*time.Second, tiny))
			b := inputBytes(t, w.gen(7, 2*time.Second, tiny))
			c := inputBytes(t, w.gen(8, 2*time.Second, tiny))
			if !bytes.Equal(a, b) {
				t.Errorf("%s tiny=%v: the same seed gave different inputs", w.name, tiny)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s tiny=%v: seeds 7 and 8 gave the same inputs", w.name, tiny)
			}
		}
	}
}

// TestServeStreamDesign checks the request mix the workload promises:
// every block holds exactly 14 place misses, 3 evals and 3 hits, evals
// and hits refer to an earlier place request of the same block, and no
// two place requests share a body (so none can hit the cache).
func TestServeStreamDesign(t *testing.T) {
	cfg := newServeConfig(2*time.Second, false)
	seen := map[string]bool{}
	for c := 0; c < 2; c++ {
		items := serveStream(3, c, cfg, 16)
		if len(items) != 16*blockLen {
			t.Fatalf("client %d: %d items, want %d", c, len(items), 16*blockLen)
		}
		for b := 0; b < 16; b++ {
			var counts [3]int
			for i := b * blockLen; i < (b+1)*blockLen; i++ {
				it := items[i]
				counts[it.Class]++
				if it.Class == classPlace {
					if seen[string(it.Body)] {
						t.Errorf("client %d item %d: repeated place body", c, i)
					}
					seen[string(it.Body)] = true
					continue
				}
				if it.Ref >= i || it.Ref < b*blockLen || items[it.Ref].Class != classPlace {
					t.Errorf("client %d item %d: bad reference %d", c, i, it.Ref)
				}
			}
			if counts != [3]int{14, 3, 3} {
				t.Errorf("client %d block %d: class counts %v", c, b, counts)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test compares
// against.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
	Workloads []struct {
		Name string
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.go %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.Name || m.Unit != lm.Unit || m.Better != lm.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, layers.go %s %s %s", i, m, lm.Name, lm.Unit, lm.Better)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs every workload at tiny size, untraced
// and traced, and checks that each prints every metric BENCHMARK.json
// names with its unit, that its output checks pass, and that a traced
// metric is either measured or has a stated reason why it cannot be.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		rep, err := run(w, 5, 1500*time.Millisecond, false, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: failed %d of %d: %v", w.name, rep.Failed, rep.Attempt, rep.Notes)
		}
		got := map[string]metric{}
		for _, m := range rep.Metrics {
			got[m.Name] = m
		}
		if len(got) != len(bf.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", w.name, len(got), len(bf.EndToEnd))
		}
		for _, e := range bf.EndToEnd {
			m, ok := got[e.Name]
			switch {
			case !ok:
				t.Errorf("%s: no %s", w.name, e.Name)
			case m.Unit != e.Unit:
				t.Errorf("%s: %s unit %q, want %q", w.name, e.Name, m.Unit, e.Unit)
			case !(m.Value > 0) || math.IsInf(m.Value, 0):
				t.Errorf("%s: %s = %v, want a positive number", w.name, e.Name, m.Value)
			}
		}

		rep, err = run(w, 5, 3*time.Second, true, true)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !rep.Correct {
			t.Errorf("%s traced: failed %d of %d: %v", w.name, rep.Failed, rep.Attempt, rep.Notes)
		}
		if len(rep.Metrics) != len(bf.PerLayer) {
			t.Fatalf("%s traced: %d metrics, BENCHMARK.json names %d", w.name, len(rep.Metrics), len(bf.PerLayer))
		}
		for i, m := range rep.Metrics {
			if m.Name != bf.PerLayer[i].Name || m.Unit != bf.PerLayer[i].Unit {
				t.Errorf("%s traced: metric %d is %s %s, want %s %s", w.name, i, m.Name, m.Unit, bf.PerLayer[i].Name, bf.PerLayer[i].Unit)
			}
			ok, why := applicable(w.name, m.Name)
			// Durations and sizes of a measured layer cannot be zero;
			// counts and ratios (429s, bans, deaths, list reuse) can.
			timed := m.Unit == "ms" || m.Unit == "us" || m.Unit == "KB" || m.Name == "trace_overhead"
			if ok && timed && !(m.Value > 0) {
				t.Errorf("%s traced: %s = %v but the layer is exercised", w.name, m.Name, m.Value)
			}
			if !ok && (why == "" || m.Value != 0) {
				t.Errorf("%s traced: %s not measured, value %v, reason %q", w.name, m.Name, m.Value, why)
			}
		}
	}
}
