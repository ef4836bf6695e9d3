package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
)

// swarm_2k: OSTD simulation of 2000 CMA nodes on the default forest,
// started at seeded random positions — the repository's step_large_n
// cost centre. The run is fault-free with zero sensing noise, and one
// op is one slot, stepped back to back by one goroutine (the engine
// parallelises the sense and fit stages internally over nproc).
//
// The phase runs for its duration and at least minSlots slots, so
// latency_ms_p90 always has enough samples beyond it. δ is the mean of
// the swarm δ over a fixed window of slots (deltaAt … deltaAt+deltaSlots−1
// of the timed phase), and alloc_mb_per_op the allocation per slot over
// another (allocAt … allocAt+allocSlots−1); every run reaches both, so
// neither depends on how many slots the phase fits. The δ evaluations and
// the allocation reads are paused out of the timed wall clock.

type swarmConfig struct {
	nodes      int
	warmSlots  int
	minSlots   int
	deltaAt    int
	deltaSlots int
	deltaN     int
	allocAt    int
	allocSlots int
}

func newSwarmConfig(tiny bool) swarmConfig {
	if tiny {
		return swarmConfig{nodes: 400, warmSlots: 1, minSlots: 3, deltaAt: 1, deltaSlots: 2, deltaN: 30, allocAt: 1, allocSlots: 2}
	}
	// 110 slots leave 11 beyond the nearest-rank p90.
	return swarmConfig{nodes: 2000, warmSlots: 3, minSlots: 110, deltaAt: 60, deltaSlots: 8, deltaN: 100, allocAt: 10, allocSlots: 100}
}

type swarmInputs struct {
	cfg  swarmConfig
	seed int64
	pos  []geom.Vec2
}

func genSwarm(seed int64, _ time.Duration, tiny bool) any {
	cfg := newSwarmConfig(tiny)
	region := field.DefaultForestConfig().Region
	rng := rand.New(rand.NewSource(int64(mix(seed, 7))))
	pos := make([]geom.Vec2, cfg.nodes)
	for i := range pos {
		pos[i] = geom.V2(region.Min.X+rng.Float64()*region.Width(), region.Min.Y+rng.Float64()*region.Height())
	}
	return &swarmInputs{cfg: cfg, seed: seed, pos: pos}
}

type swarmRun struct {
	in     *swarmInputs
	forest *field.Forest
	world  *sim.World

	spanRatio float64 // traced: decorator stage time / engine_stage_seconds
	traced    bool
}

func (in *swarmInputs) options() sim.Options {
	opts := sim.DefaultOptions()
	opts.Seed = in.seed
	return opts
}

func setupSwarm(inputs any) (runner, error) {
	in := inputs.(*swarmInputs)
	s := &swarmRun{in: in, forest: field.NewForest(field.DefaultForestConfig())}
	w, err := sim.NewWorld(s.forest, in.pos, in.options())
	if err != nil {
		return nil, err
	}
	for i := 0; i < in.cfg.warmSlots; i++ {
		if _, err := w.Step(); err != nil {
			return nil, err
		}
	}
	s.world = w
	return s, nil
}

func (s *swarmRun) phase(d time.Duration, tr *tracer) (*phaseResult, error) {
	if tr != nil {
		return s.tracedPhase(d, tr)
	}
	cfg := s.in.cfg
	// Sized up front so the benchmark's own bookkeeping does not count
	// in the program's allocations.
	res := &phaseResult{LatMs: make([]float64, 0, 4096)}
	mem := newMemSampler()
	alloc0 := totalAlloc()
	var (
		paused     time.Duration
		pausedB    uint64
		deltaSum   float64
		deltaCount int
		// Allocation and δ's own allocation at the alloc window's start.
		windowA, windowPausedB uint64
	)
	// readAlloc reads the allocation total with the clock paused.
	readAlloc := func() uint64 {
		p0 := time.Now()
		a := totalAlloc()
		paused += time.Since(p0)
		return a
	}
	// The slot floor stops extending the phase at 3d, so a host too slow
	// for it still ends in time; the run then fails its sample-count check.
	start := time.Now()
	for slot := 0; time.Since(start) < d+paused || (slot < cfg.minSlots && time.Since(start) < 3*d+paused); slot++ {
		if slot == cfg.allocAt {
			windowA, windowPausedB = readAlloc(), pausedB
		}
		res.Attempted++
		t0 := time.Now()
		_, err := s.world.Step()
		res.LatMs = append(res.LatMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("slot %d: %v", slot, err))
			break
		}
		res.Ops++
		mem.sample()
		if slot == cfg.allocAt+cfg.allocSlots-1 {
			res.AllocBytes = readAlloc() - windowA - (pausedB - windowPausedB)
			res.AllocOps = cfg.allocSlots
		}
		if slot >= cfg.deltaAt && slot < cfg.deltaAt+cfg.deltaSlots {
			p0, b0 := time.Now(), totalAlloc()
			delta, err := s.world.Delta(cfg.deltaN)
			if err != nil {
				return nil, err
			}
			pausedB += totalAlloc() - b0
			paused += time.Since(p0)
			deltaSum += delta
			deltaCount++
		}
	}
	res.Wall = time.Since(start) - paused
	if res.AllocOps == 0 {
		res.AllocBytes = totalAlloc() - alloc0 - pausedB
		res.Notes = append(res.Notes, fmt.Sprintf("phase ended before slot %d; allocation is over the whole phase", cfg.allocAt+cfg.allocSlots))
	}
	res.HeapGoals = mem.goals
	if deltaCount == 0 {
		// Too few slots for the δ window (only in short traced halves):
		// take δ of the final state instead.
		delta, err := s.world.Delta(cfg.deltaN)
		if err != nil {
			return nil, err
		}
		deltaSum, deltaCount = delta, 1
		res.Notes = append(res.Notes, fmt.Sprintf("phase ended before slot %d; δ is the final state's", cfg.deltaAt))
	}
	res.Delta = deltaSum / float64(deltaCount)
	res.Notes = append(res.Notes, fmt.Sprintf("swarm: %d nodes, %d timed slots, δ mean over %d slots, allocation over %d slots", cfg.nodes, res.Ops, deltaCount, res.AllocOps))
	return res, nil
}

// timedStage wraps one engine stage and records its interval, giving the
// slot span real child spans.
type timedStage struct {
	engine.Stage
	rec *stageRecorder
}

type stageTime struct {
	name       string
	start, end time.Time
}

type stageRecorder struct{ times []stageTime }

// Run implements engine.Stage.
func (ts timedStage) Run(e *engine.Engine, sl *engine.Slot) error {
	t0 := time.Now()
	err := ts.Stage.Run(e, sl)
	ts.rec.times = append(ts.rec.times, stageTime{ts.Name(), t0, time.Now()})
	return err
}

// tracedPhase steps a fresh swarm (same positions and warm-up) built
// with engine.New so the default stages can be wrapped in timing
// decorators; the engine's own stage histograms are attached to
// cross-check the decorators' sums.
func (s *swarmRun) tracedPhase(d time.Duration, tr *tracer) (*phaseResult, error) {
	s.traced = true
	cfg := s.in.cfg
	reg := obs.NewRegistry()
	rec := &stageRecorder{}
	stages := engine.DefaultStages()
	for i, st := range stages {
		stages[i] = timedStage{st, rec}
	}
	opts := s.in.options()
	eng, err := engine.New(s.forest, s.in.pos, engine.Options{
		Config: opts.Config, Seed: opts.Seed, SlotMinutes: opts.SlotMinutes,
		Stages: stages, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.warmSlots; i++ {
		if _, err := eng.Step(); err != nil {
			return nil, err
		}
	}
	counter := func(name string) float64 { return float64(reg.Counter(name).Value()) }
	histSum := func() float64 {
		sum := 0.0
		for _, st := range stages {
			sum += reg.Histogram("engine_stage_seconds_"+st.Name(), nil).Sum()
		}
		return sum * 1e3
	}
	hist0 := histSum()
	reused0, recomp0 := counter("engine_neighbor_lists_reused_total"), counter("engine_neighbor_lists_recomputed_total")
	rebuilds0 := counter("engine_index_rebuilds_total")

	res := &phaseResult{}
	mem := newMemSampler()
	alloc0 := totalAlloc()
	var moved, followed, alive int
	var stageMs float64
	start := time.Now()
	for slot := 0; time.Since(start) < d; slot++ {
		res.Attempted++
		rec.times = rec.times[:0]
		t0 := time.Now()
		st, err := eng.Step()
		t1 := time.Now()
		if err != nil {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("slot %d: %v", slot, err))
			break
		}
		trace := fmt.Sprintf("slot/%d", slot)
		id := tr.add(trace, 0, "engine.slot", t0, t1)
		for _, t := range rec.times {
			tr.add(trace, id, "engine."+t.name, t.start, t.end)
			stageMs += float64(t.end.Sub(t.start).Nanoseconds()) / 1e6
		}
		res.LatMs = append(res.LatMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
		res.Ops++
		moved += st.Moved
		followed += st.Followed
		alive += st.Alive
		mem.sample()
	}
	res.Wall = time.Since(start)
	res.AllocBytes = totalAlloc() - alloc0
	res.HeapGoals = mem.goals

	sum := tr.summary()
	L := map[string]float64{}
	for _, st := range stages {
		L["engine."+st.Name()+"_ms"] = sum["engine."+st.Name()].Mean()
	}
	L["engine.slot_self_ms"] = sum["engine.slot"].MeanSelf()
	if alive > 0 {
		L["curvature.fit_us_per_node"] = sum["engine.fit"].Ms * 1e3 / float64(alive)
	}
	reused, recomp := counter("engine_neighbor_lists_reused_total")-reused0, counter("engine_neighbor_lists_recomputed_total")-recomp0
	if reused+recomp > 0 {
		L["engine.neighbor_reuse_ratio"] = reused / (reused + recomp)
	}
	if res.Ops > 0 {
		n := float64(res.Ops)
		L["engine.index_rebuilds"] = (counter("engine_index_rebuilds_total") - rebuilds0) / n
		L["engine.moved_per_slot"] = float64(moved) / n
		L["engine.lcm_follows_per_slot"] = float64(followed) / n
	}
	if h := histSum() - hist0; h > 0 {
		s.spanRatio = stageMs / h
		L["engine.stage_span_ratio"] = s.spanRatio
	}

	// sim.World.Delta at the traced swarm's final positions, outside the
	// timed loop: the same sample count and lattice as the run's δ.
	w, err := sim.NewWorld(s.forest, eng.Positions(), opts)
	if err != nil {
		return nil, err
	}
	var dms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := w.Delta(cfg.deltaN); err != nil {
			return nil, err
		}
		dms = append(dms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	L["sim.delta_ms"] = median(dms)
	res.Layers = L
	res.Notes = append(res.Notes, fmt.Sprintf("traced swarm: %d slots; decorator stage time / engine_stage_seconds = %.4f", res.Ops, s.spanRatio))
	return res, nil
}

func (s *swarmRun) check() []string {
	var bad []string
	delta, err := s.world.Delta(s.in.cfg.deltaN)
	if err != nil || math.IsNaN(delta) || math.IsInf(delta, 0) || delta <= 0 {
		bad = append(bad, fmt.Sprintf("final δ = %v, err %v", delta, err))
	}
	region := s.forest.Bounds()
	for i, p := range s.world.Positions() {
		if !region.Contains(p) {
			bad = append(bad, fmt.Sprintf("node %d at %v is outside the region", i, p))
			break
		}
	}
	if !s.world.Connected() {
		bad = append(bad, "the swarm is not connected at the end of the run")
	}
	// The engine's histogram timer wraps each decorated stage, so the
	// decorators can only see less time than the histograms.
	if s.traced && (s.spanRatio < 0.8 || s.spanRatio > 1.0001) {
		bad = append(bad, fmt.Sprintf("stage decorators cover %.4f of engine_stage_seconds", s.spanRatio))
	}
	return bad
}

func (s *swarmRun) close() {}
