package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// phaseResult is what one timed phase measured.
type phaseResult struct {
	// Ops completed and the phase's wall time.
	Ops  int
	Wall time.Duration
	// Attempted and Failed count operations, including failed output
	// checks made during the phase.
	Attempted, Failed int
	// LatMs holds the per-operation times that the latency percentiles
	// are taken over (what an op is differs per workload).
	LatMs []float64
	// Delta is the workload's δ (lower is better).
	Delta float64
	// AllocBytes is the heap allocated by AllocOps operations of the
	// phase (all of them when AllocOps is 0); HeapGoals the GC heap goal
	// sampled at operation boundaries.
	AllocBytes uint64
	AllocOps   int
	HeapGoals  []float64
	// Layers holds the traced phase's per-layer metrics.
	Layers map[string]float64
	// Notes are human-readable lines for the report.
	Notes []string
}

// Throughput is operations completed per second over the whole timed
// phase.
func (r *phaseResult) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Wall.Seconds()
}

// AllocMBPerOp is the heap allocated per operation, in MB.
func (r *phaseResult) AllocMBPerOp() float64 {
	ops := r.AllocOps
	if ops == 0 {
		ops = r.Ops
	}
	return float64(r.AllocBytes) / (1 << 20) / float64(max(ops, 1))
}

// latencies returns the nearest-rank p50 and p90 of LatMs, the number of
// samples beyond p90 and a note stating the sample counts.
func (r *phaseResult) latencies() (p50, p90 float64, beyond int, note string) {
	s := append([]float64(nil), r.LatMs...)
	sort.Float64s(s)
	p50, _ = nearestRank(s, 0.5)
	p90, beyond = nearestRank(s, 0.9)
	return p50, p90, beyond, fmt.Sprintf("latency samples=%d, beyond p90=%d", len(s), beyond)
}

// PeakHeapMB is the peak heap: the 99th percentile of the sampled heap
// goals. The goal is the size the GC lets the heap reach before it
// collects — where the heap's sawtooth peaks — set from the live heap at
// each collection; the percentile keeps one collection that caught two
// large cells in flight from setting the figure alone.
func (r *phaseResult) PeakHeapMB() float64 {
	s := append([]float64(nil), r.HeapGoals...)
	sort.Float64s(s)
	v, _ := nearestRank(s, 0.99)
	return v / (1 << 20)
}

// memSampler reads the GC heap goal without stopping the world. Each
// goroutine that samples owns its own memSampler.
type memSampler struct {
	s     []metrics.Sample
	goals []float64
}

const heapGoal = "/gc/heap/goal:bytes"

func newMemSampler() *memSampler {
	return &memSampler{
		s:     []metrics.Sample{{Name: heapGoal}},
		goals: make([]float64, 0, 4096),
	}
}

// sample records the current heap goal.
func (m *memSampler) sample() {
	metrics.Read(m.s)
	m.goals = append(m.goals, float64(m.s[0].Value.Uint64()))
}

// totalAlloc returns the cumulative bytes the process has allocated.
// ReadMemStats stops the world to flush every P's allocation cache, so
// unlike the runtime/metrics counter it is exact at small amounts; it is
// called only outside timed work (phase edges, paused δ evaluations).
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// span is one traced interval. Spans of one request, slot or cell share
// a trace id; Parent is the id of the span that caused it (0 for roots).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its id.
func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// summary aggregates the spans by name: count, total ms, and the total
// self time (span minus the time its direct children took).
type spanSummary struct {
	Count  int
	Ms     float64
	SelfMs float64
	all    []float64
}

// Mean is the mean span length in ms (0 when no span was seen).
func (s *spanSummary) Mean() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.Ms / float64(s.Count)
}

// MeanSelf is the mean self time in ms.
func (s *spanSummary) MeanSelf() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return s.SelfMs / float64(s.Count)
}

// Quantile is the nearest-rank q-quantile of the span lengths in ms.
func (s *spanSummary) Quantile(q float64) float64 {
	if s == nil {
		return 0
	}
	v := append([]float64(nil), s.all...)
	sort.Float64s(v)
	x, _ := nearestRank(v, q)
	return x
}

func (t *tracer) summary() map[string]*spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	out := map[string]*spanSummary{}
	for _, s := range t.spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.Count++
		sum.Ms += s.ms()
		sum.SelfMs += s.ms() - child[s.ID]
		sum.all = append(sum.all, s.ms())
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp records the host and run facts every result carries, so results
// can be read as a trajectory across commits.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	GitRev     string  `json:"git_rev"`
	Time       string  `json:"time"`
}

func hostStamp(workload string, seed int64, d time.Duration, traced bool) stamp {
	return stamp{
		Workload: workload, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name on Linux; elsewhere it is unknown.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the revision run.sh found, or "unknown" outside a git
// checkout.
func gitRev() string {
	if rev := os.Getenv("PERFBENCH_GIT_REV"); rev != "" {
		return rev
	}
	return "unknown"
}

// mix is a splitmix64 step: a cheap, well-spread hash of a seed and a
// stream index, used to derive independent sub-seeds.
func mix(seed int64, stream uint64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// spanBuf collects one trace's spans while they run and hands them to
// the tracer afterwards. Spans are opened parent-first, so flushing in
// order always adds a parent before its children.
type spanBuf struct{ spans []bufSpan }

type bufSpan struct {
	name       string
	parent     int // 1-based index in the buffer; 0 for a root
	start, end time.Time
}

// open starts a span and returns its handle.
func (b *spanBuf) open(name string, parent int) int {
	b.spans = append(b.spans, bufSpan{name: name, parent: parent, start: time.Now()})
	return len(b.spans)
}

// end closes a span; closing it again keeps the first end.
func (b *spanBuf) end(h int) {
	if s := &b.spans[h-1]; s.end.IsZero() {
		s.end = time.Now()
	}
}

func (b *spanBuf) ms(h int) float64 {
	s := b.spans[h-1]
	return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6
}

// flush adds the spans to tr under one trace id, closing any left open
// by an error path.
func (b *spanBuf) flush(tr *tracer, trace string) {
	ids := make([]int, len(b.spans))
	for i, s := range b.spans {
		if s.end.IsZero() {
			s.end = time.Now()
		}
		parent := 0
		if s.parent > 0 {
			parent = ids[s.parent-1]
		}
		ids[i] = tr.add(trace, parent, s.name, s.start, s.end)
	}
}
