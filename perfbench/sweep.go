package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/sweep"
)

// sweep_grid: a batch research grid run by sweep.Run with nproc workers
// and a checkpoint file, back to back until the phase ends (the last
// grid is stopped through RunOptions.Stop). One op is one cell.
//
// The grid crosses all four fields, small and medium k, Rc 5 (where FRA
// runs short of its budget) and 10, strategies fra and tour, fault-free
// and one fault profile, and two seeds: 128 cells. Every cell runs its
// placement at GridN 50, random baseline draws and a short mobile phase
// in which δ is evaluated every slot; faulty cells run small swarms with
// serial exchange and robust fits. The seed picks the cell seeds, which
// drive the random baselines. The fields keep their default seeds and
// the fault profile pins its own, so every seed does the same placement
// and mobile work (the run-to-run spread is the host's, not the
// inputs'), and the static δ — deterministic placements on fixed fields —
// is the same for every seed: any change to it is a change of behaviour.
//
// Grid users wait for the whole grid, so latency here is the time from a
// grid's start until a cell's result is checkpointed — what a caller
// streaming the grid's results waits — taken over the grids that
// completed in the phase. Its p90 is close to the whole grid's time.

type sweepInputs struct {
	workers int
	spec    sweep.Spec
	warm    sweep.Spec
}

func genSweep(seed int64, _ time.Duration, tiny bool) any {
	s1 := 1 + int64(mix(seed, 13)%1_000_000)
	spec := sweep.Spec{
		Name: "perfbench-sweep_grid",
		Fields: []sweep.FieldSpec{
			{Kind: "forest"}, {Kind: "peaks"}, {Kind: "terrain"}, {Kind: "ridge"},
		},
		// Medium k and the fault profile first: cells run in spec order,
		// so the costliest cells (faulty fra swarms at k = 24) start early
		// and a grid ends on cheap ones instead of leaving one worker idle
		// behind a 600 ms cell.
		Ks:          []int{24, 8},
		Rcs:         []float64{5, 10},
		Strategies:  []string{"fra", "tour"},
		Faults:      []fault.ProfileSpec{{Rate: 0.2, Seed: 99}, {}},
		Seeds:       []int64{s1, s1 + 1},
		GridN:       50,
		DeltaN:      50,
		RandomDraws: 2,
		Slots:       8,
	}
	warm := sweep.Spec{
		Name:        "perfbench-warmup",
		Fields:      []sweep.FieldSpec{{Kind: "forest"}, {Kind: "peaks"}},
		Ks:          []int{8, 24},
		Rcs:         []float64{10},
		Strategies:  []string{"fra", "tour"},
		Faults:      []fault.ProfileSpec{{}, {Rate: 0.2}},
		RandomDraws: 2,
		Slots:       8,
	}
	if tiny {
		spec.Fields = spec.Fields[:2]
		spec.Ks, spec.Seeds = []int{6}, spec.Seeds[:1]
		spec.GridN, spec.DeltaN, spec.RandomDraws, spec.Slots = 20, 20, 1, 2
		warm.Ks, warm.Slots = []int{6}, 2
	}
	spec.Normalize()
	warm.Normalize()
	return &sweepInputs{workers: runtime.NumCPU(), spec: spec, warm: warm}
}

// gridRun is one sweep.Run of the timed phase.
type gridRun struct {
	rep  *sweep.Report
	path string
}

// tracedGrid is one grid of the traced phase.
type tracedGrid struct {
	results  []sweep.Result
	done     []bool
	complete bool
	deaths   int64
	drops    int64
	busy     float64
}

type sweepRun struct {
	in     *sweepInputs
	dir    string
	grids  []gridRun
	traced []tracedGrid
}

func setupSweep(inputs any) (runner, error) {
	in := inputs.(*sweepInputs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "sweep-")
	if err != nil {
		return nil, err
	}
	s := &sweepRun{in: in, dir: dir}
	rep, err := sweep.Run(in.warm, sweep.RunOptions{Workers: in.workers, Checkpoint: filepath.Join(dir, "warm.jsonl")})
	if err == nil && rep.Failed > 0 {
		err = fmt.Errorf("%d failed cells", rep.Failed)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("sweep warm-up: %w", err)
	}
	return s, nil
}

func (s *sweepRun) phase(d time.Duration, tr *tracer) (*phaseResult, error) {
	if tr != nil {
		return s.tracedPhase(d, tr)
	}
	res := &phaseResult{}
	mem := newMemSampler()
	alloc0 := totalAlloc()
	var (
		mu   sync.Mutex
		once sync.Once
		stop = make(chan struct{})
	)
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		path := filepath.Join(s.dir, fmt.Sprintf("grid-%d.jsonl", len(s.grids)))
		var lat []float64
		gridStart := time.Now()
		rep, err := sweep.Run(s.in.spec, sweep.RunOptions{
			Workers:    s.in.workers,
			Checkpoint: path,
			Stop:       stop,
			OnResult: func(sweep.Result) {
				now := time.Now()
				mu.Lock()
				lat = append(lat, float64(now.Sub(gridStart).Nanoseconds())/1e6)
				mem.sample()
				mu.Unlock()
				if !now.Before(deadline) {
					once.Do(func() { close(stop) })
				}
			},
		})
		if err != nil {
			return nil, err
		}
		s.grids = append(s.grids, gridRun{rep, path})
		res.Ops += rep.Computed
		res.Attempted += rep.Computed
		res.Failed += rep.Failed
		if len(rep.Cells) == rep.Total {
			res.LatMs = append(res.LatMs, lat...)
		}
		if rep.Interrupted {
			break
		}
	}
	res.Wall = time.Since(start)
	res.AllocBytes = totalAlloc() - alloc0
	res.HeapGoals = mem.goals
	if len(res.LatMs) == 0 {
		res.Notes = append(res.Notes, "no grid completed in the phase: latency has no samples")
	}
	var first []sweep.Result
	if len(s.grids) > 0 {
		first = s.grids[0].rep.Cells
	}
	for _, c := range first {
		res.Delta += c.Delta
	}
	if len(first) > 0 {
		res.Delta /= float64(len(first))
	}
	complete := 0
	for _, g := range s.grids {
		if len(g.rep.Cells) == g.rep.Total {
			complete++
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf("grids: %d of %d cells each, %d complete; %d cells done; δ mean over %d cells of the first grid",
		len(s.grids), s.in.spec.NumCells(), complete, res.Ops, len(first)))
	return res, nil
}

// tracedPhase runs the same grid through the benchmark's own replay of
// each cell — the public calls RunCell makes, with spans around them —
// on nproc workers, appending to a CheckpointWriter and aggregating with
// the Write{JSON,CSV,Table} calls, so each layer gets its own timing.
func (s *sweepRun) tracedPhase(d time.Duration, tr *tracer) (*phaseResult, error) {
	spec := &s.in.spec
	cells := spec.Cells()
	res := &phaseResult{}
	mem := newMemSampler()
	alloc0 := totalAlloc()
	start := time.Now()
	deadline := start.Add(d)
	var regs []*obs.Registry
	var ckptBytes []int64
	for g := 0; time.Now().Before(deadline); g++ {
		reg := obs.NewRegistry()
		path := filepath.Join(s.dir, fmt.Sprintf("traced-%d.jsonl", g))
		ckpt, err := sweep.NewCheckpointWriter(path, spec.SpecDigest(), false)
		if err != nil {
			return nil, err
		}
		tg := tracedGrid{results: make([]sweep.Result, len(cells)), done: make([]bool, len(cells))}
		var (
			next    atomic.Int64
			wg      sync.WaitGroup
			mu      sync.Mutex
			cellMs  float64
			ckptErr error
		)
		gridStart := time.Now()
		for w := 0; w < s.in.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := int(next.Add(1)) - 1
					if i >= len(cells) {
						return
					}
					trace := fmt.Sprintf("cell/%d/%d", g, i)
					r, ms := replayCell(spec, cells[i], reg, tr, trace)
					t0 := time.Now()
					err := ckpt.Append(r)
					tr.add(trace, 0, "sweep.checkpoint", t0, time.Now())
					mu.Lock()
					tg.results[i], tg.done[i] = r, true
					cellMs += ms
					if err != nil && ckptErr == nil {
						ckptErr = err
					}
					mem.sample()
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(gridStart)
		if err := ckpt.Close(); err != nil && ckptErr == nil {
			ckptErr = err
		}
		if ckptErr != nil {
			return nil, ckptErr
		}
		rep := sweep.NewReport(spec, tg.results, tg.done)
		t0 := time.Now()
		for _, write := range []func(io.Writer, *sweep.Report) error{sweep.WriteJSON, sweep.WriteCSV, sweep.WriteTable} {
			if err := write(io.Discard, rep); err != nil {
				return nil, err
			}
		}
		tr.add(fmt.Sprintf("grid/%d", g), 0, "sweep.aggregate", t0, time.Now())
		tg.complete = len(rep.Cells) == len(cells)
		tg.deaths = reg.Counter("fault_deaths_total").Value()
		tg.drops = reg.Counter("fault_link_drops_total").Value()
		tg.busy = cellMs / (float64(s.in.workers) * float64(wall.Nanoseconds()) / 1e6)
		s.traced = append(s.traced, tg)
		res.Ops += len(rep.Cells)
		res.Attempted += len(rep.Cells)
		res.Failed += rep.Failed
		if tg.complete {
			regs = append(regs, reg)
			if st, err := os.Stat(path); err == nil {
				ckptBytes = append(ckptBytes, st.Size())
			}
		}
	}
	res.Wall = time.Since(start)
	res.AllocBytes = totalAlloc() - alloc0
	res.HeapGoals = mem.goals

	sum := tr.summary()
	L := map[string]float64{
		"sweep.cell_ms_p50":      sum["sweep.cell"].Quantile(0.5),
		"sweep.cell_ms_p90":      sum["sweep.cell"].Quantile(0.9),
		"sweep.static_ms":        sum["sweep.static"].Mean(),
		"sweep.random_ms":        sum["sweep.random"].Mean(),
		"sweep.mobile_ms":        sum["sweep.mobile"].Mean(),
		"sweep.checkpoint_ms":    sum["sweep.checkpoint"].Mean(),
		"sweep.aggregate_ms":     sum["sweep.aggregate"].Mean(),
		"field.build_ms":         sum["field.build"].Mean(),
		"core.evaluate_ms":       sum["core.evaluate"].Mean(),
		"strategy.place_ms.fra":  sum["strategy.place.fra"].Mean(),
		"strategy.place_ms.tour": sum["strategy.place.tour"].Mean(),
	}
	var busy []float64
	for _, tg := range s.traced {
		if tg.complete || len(s.traced) == 1 {
			busy = append(busy, tg.busy)
		}
	}
	L["sweep.worker_busy_ratio"] = median(busy)
	if len(ckptBytes) > 0 {
		L["sweep.checkpoint_kb"] = float64(ckptBytes[0]) / 1024
	}
	tg := s.traced[firstComplete(s.traced)]
	L["fault.deaths"] = float64(tg.deaths)
	L["fault.link_drops"] = float64(tg.drops)
	shortfall := 0
	for i, r := range tg.results {
		if tg.done[i] && r.Strategy == "fra" && r.Refined+r.Relays < r.K {
			shortfall++
		}
	}
	L["core.fra_shortfall"] = float64(shortfall)
	if len(regs) > 0 {
		engineLayers(L, regs[0], spec)
		fraMetrics(L, regs[0])
	}
	res.Layers = L
	res.Notes = append(res.Notes, fmt.Sprintf("traced: %d grids, %d cells replayed; fault deaths %d, link drops %d per grid",
		len(s.traced), res.Ops, tg.deaths, tg.drops))
	return res, nil
}

// engineLayers reads the engine's own stage histograms and counters from
// one grid's registry: the mobile phases build their worlds inside the
// replayed calls, so the per-stage times come from the program's metrics
// rather than from decorators.
func engineLayers(L map[string]float64, reg *obs.Registry, spec *sweep.Spec) {
	slots := float64(reg.Counter("engine_slots_total").Value())
	if slots == 0 {
		return
	}
	stages := 0.0
	for _, name := range []string{"sense", "fit", "exchange", "plan", "resolve", "move", "account"} {
		ms := reg.Histogram("engine_stage_seconds_"+name, nil).Sum() * 1e3
		stages += ms
		L["engine."+name+"_ms"] = ms / slots
	}
	L["engine.slot_self_ms"] = (reg.Histogram("engine_step_seconds", nil).Sum()*1e3 - stages) / slots
	nodeSlots := 0
	for _, c := range spec.Cells() {
		nodeSlots += c.K * spec.Slots
	}
	L["curvature.fit_us_per_node"] = reg.Histogram("engine_stage_seconds_fit", nil).Sum() * 1e6 / float64(nodeSlots)
	reused := float64(reg.Counter("engine_neighbor_lists_reused_total").Value())
	recomp := float64(reg.Counter("engine_neighbor_lists_recomputed_total").Value())
	if reused+recomp > 0 {
		L["engine.neighbor_reuse_ratio"] = reused / (reused + recomp)
	}
	L["engine.index_rebuilds"] = float64(reg.Counter("engine_index_rebuilds_total").Value()) / slots
	L["engine.moved_per_slot"] = float64(reg.Counter("engine_moved_total").Value()) / slots
	L["engine.lcm_follows_per_slot"] = float64(reg.Counter("engine_lcm_follows_total").Value()) / slots
}

// replayCell computes one cell through the public calls sweep.RunCell
// makes, in its order, with a span around each layer. It returns the
// cell's result and its time in ms.
func replayCell(spec *sweep.Spec, c sweep.Cell, reg *obs.Registry, tr *tracer, trace string) (sweep.Result, float64) {
	name := c.Strategy
	res := sweep.Result{
		Index: c.Index, Digest: spec.Digest(c),
		Field: c.EnvLabel(), K: c.K, Rc: c.Rc, Strategy: name,
		FaultRate: c.Fault.Rate, Seed: c.Seed,
	}
	var b spanBuf
	cell := b.open("sweep.cell", 0)
	defer func() {
		b.end(cell)
		b.flush(tr, trace)
	}()
	fail := func(format string, v ...any) (sweep.Result, float64) {
		res.Err = fmt.Sprintf(format, v...)
		return res, 0
	}
	sp := b.open("field.build", cell)
	dyn, err := c.BuildEnv()
	if err != nil {
		return fail("%v", err)
	}
	ref := field.Slice(dyn, 0)
	b.end(sp)

	static := b.open("sweep.static", cell)
	placer, err := strategy.LookupPlacement(name)
	if err != nil {
		return fail("%v", err)
	}
	sp = b.open("strategy.place."+name, static)
	p, err := placer.Place(ref, strategy.PlaceOptions{K: c.K, Rc: c.Rc, GridN: spec.GridN, Seed: c.Seed, Metrics: reg})
	if err != nil {
		return fail("%s: %v", name, err)
	}
	b.end(sp)
	sp = b.open("core.evaluate", static)
	ev, err := core.Evaluate(ref, p, c.Rc, spec.DeltaN)
	if err != nil {
		return fail("evaluate %s: %v", name, err)
	}
	b.end(sp)
	b.end(static)
	res.Delta, res.Refined, res.Relays, res.Connected = ev.Delta, p.Refined, p.Relays, ev.Connected

	if spec.RandomDraws > 0 {
		random := b.open("sweep.random", cell)
		corners := ref.Bounds().Corners()
		anchors := append([]geom.Vec2(nil), corners[:]...)
		sum := 0.0
		for d := 0; d < spec.RandomDraws; d++ {
			r := core.RandomPlacement(ref.Bounds(), c.K, c.Seed+int64(d))
			r.Anchors = anchors
			sp = b.open("core.evaluate", random)
			rev, err := core.Evaluate(ref, r, c.Rc, spec.DeltaN)
			if err != nil {
				return fail("evaluate random draw %d: %v", d, err)
			}
			b.end(sp)
			sum += rev.Delta
		}
		res.DeltaRandom = sum / float64(spec.RandomDraws)
		b.end(random)
	}

	if spec.Slots > 0 {
		mobile := b.open("sweep.mobile", cell)
		opts := sim.DefaultOptions()
		opts.Config.Region = dyn.Bounds()
		opts.Config.Rc = c.Rc
		opts.Config.RobustFit = c.Fault.Rate > 0
		opts.Seed = c.Seed
		opts.Faults = c.Fault.NewInjector(c.K, spec.Slots, c.Seed)
		opts.Metrics = reg
		opts.NewController = strategy.MovementFor(c.Strategy).NewController
		w, err := sim.NewWorld(dyn, field.GridLayout(dyn.Bounds(), c.K), opts)
		if err != nil {
			return fail("mobile: %v", err)
		}
		row, err := eval.RunDegradation(w, spec.Slots, spec.DeltaN)
		if err != nil {
			return fail("mobile: %v", err)
		}
		b.end(mobile)
		res.Mobile = &sweep.MobileResult{
			DeltaEnd: row.DeltaEnd, DeltaMean: row.DeltaMean,
			ConvergenceT: row.ConvergenceT, Converged: row.Converged,
			ConnectedUptime: row.ConnectedUptime, SinkReach: row.SinkReach,
			AliveEnd: row.AliveEnd, Deaths: row.Deaths, Repairs: row.Repairs, Rebuilds: row.Rebuilds,
			Energy:         row.Energy,
			DeltaPerLength: row.DeltaMean / (1 + row.Energy/float64(c.K)),
		}
	}
	b.end(cell)
	return res, b.ms(cell)
}

func (s *sweepRun) check() []string {
	var bad []string
	spec := &s.in.spec
	var firstJSON []byte
	for g, gr := range s.grids {
		rep := gr.rep
		for _, c := range rep.Cells {
			if c.Err != "" {
				bad = append(bad, fmt.Sprintf("grid %d cell %d: %s", g, c.Index, c.Err))
			}
		}
		complete := len(rep.Cells) == rep.Total
		if !rep.Interrupted && (!complete || rep.Total != spec.NumCells()) {
			bad = append(bad, fmt.Sprintf("grid %d holds %d of %d cells", g, len(rep.Cells), spec.NumCells()))
		}
		prior, header, err := sweep.ReadCheckpoint(gr.path, io.Discard)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("grid %d: read checkpoint: %v", g, err))
		case header != spec.SpecDigest():
			bad = append(bad, fmt.Sprintf("grid %d: checkpoint header %q, want %q", g, header, spec.SpecDigest()))
		default:
			for _, c := range rep.Cells {
				if _, ok := prior[c.Digest]; !ok {
					bad = append(bad, fmt.Sprintf("grid %d: checkpoint lacks cell %d", g, c.Index))
				}
			}
		}
		if complete {
			var buf bytes.Buffer
			if err := sweep.WriteJSON(&buf, rep); err != nil {
				bad = append(bad, fmt.Sprintf("grid %d: %v", g, err))
			} else if firstJSON == nil {
				firstJSON = buf.Bytes()
			} else if !bytes.Equal(firstJSON, buf.Bytes()) {
				bad = append(bad, fmt.Sprintf("grid %d: report differs from the first complete grid's", g))
			}
		}
	}
	// The traced replay must compute exactly what sweep.Run computed, and
	// the fault counters must repeat exactly from grid to grid.
	var want map[int][]byte
	if len(s.grids) > 0 {
		want = map[int][]byte{}
		for _, c := range s.grids[0].rep.Cells {
			b, _ := sweep.CheckpointCell(c)
			want[c.Index] = b
		}
	}
	for g, tg := range s.traced {
		for i, r := range tg.results {
			if !tg.done[i] {
				continue
			}
			if r.Err != "" {
				bad = append(bad, fmt.Sprintf("traced grid %d cell %d: %s", g, i, r.Err))
				continue
			}
			if w, ok := want[i]; ok {
				if b, _ := sweep.CheckpointCell(r); !bytes.Equal(b, w) {
					bad = append(bad, fmt.Sprintf("traced grid %d cell %d: replay differs from sweep.Run", g, i))
				}
			}
		}
		if ref := s.traced[firstComplete(s.traced)]; tg.complete && (tg.deaths != ref.deaths || tg.drops != ref.drops) {
			bad = append(bad, fmt.Sprintf("traced grid %d: fault deaths/drops %d/%d differ from the first complete grid's %d/%d",
				g, tg.deaths, tg.drops, ref.deaths, ref.drops))
		}
	}
	return bad
}

// firstComplete is the index of the first complete traced grid, or 0.
func firstComplete(grids []tracedGrid) int {
	for i, g := range grids {
		if g.complete {
			return i
		}
	}
	return 0
}

func (s *sweepRun) close() { os.RemoveAll(s.dir) }
