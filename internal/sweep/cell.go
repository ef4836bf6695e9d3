package sweep

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// Result is one cell's outcome. Every field is deterministic given the
// cell's digest inputs; no wall-clock or host state leaks in, which is
// what makes aggregated output byte-comparable across runs, worker counts
// and checkpoint replays.
type Result struct {
	// Index and Digest identify the cell within its spec.
	Index  int    `json:"index"`
	Digest string `json:"digest"`
	// Field, K, Rc, Strategy, FaultRate and Seed echo the cell
	// coordinates.
	Field     string  `json:"field"`
	K         int     `json:"k"`
	Rc        float64 `json:"rc"`
	Strategy  string  `json:"strategy"`
	FaultRate float64 `json:"fault_rate"`
	Seed      int64   `json:"seed"`

	// Delta is δ of the cell's placement strategy on the reference field,
	// with Refined/Relays/Connected breaking the placement down
	// (strategy-specific bookkeeping; relays are FRA-only).
	Delta     float64 `json:"delta"`
	Refined   int     `json:"refined"`
	Relays    int     `json:"relays"`
	Connected bool    `json:"connected"`
	// DeltaRandom is the random-deployment baseline averaged over the
	// spec's RandomDraws (absent when draws are off).
	DeltaRandom float64 `json:"delta_random,omitempty"`

	// Mobile holds the movement-under-faults phase when Spec.Slots > 0,
	// driven by the strategy's movement phase (CMA unless the strategy
	// registers its own — see strategy.MovementFor).
	Mobile *MobileResult `json:"mobile,omitempty"`

	// Err is the cell's failure, if any: a failed cell is isolated — it
	// is recorded, counted, and checkpointed like any other result, and
	// never takes the sweep down with it.
	Err string `json:"error,omitempty"`
}

// MobileResult is the mobile (movement strategy + fault injection) phase
// of a cell.
type MobileResult struct {
	// DeltaEnd and DeltaMean are δ at the end of the run and averaged
	// over slots, reconstructed from surviving nodes only.
	DeltaEnd  float64 `json:"delta_end"`
	DeltaMean float64 `json:"delta_mean"`
	// ConvergenceT and Converged report when (if ever) the swarm's mean
	// displacement settled below eval.ConvergenceEps.
	ConvergenceT float64 `json:"convergence_t"`
	Converged    bool    `json:"converged"`
	// ConnectedUptime and SinkReach summarize network health over the
	// run; AliveEnd/Deaths/Repairs/Rebuilds the fault toll.
	ConnectedUptime float64 `json:"connected_uptime"`
	SinkReach       float64 `json:"sink_reach"`
	AliveEnd        int     `json:"alive_end"`
	Deaths          int     `json:"deaths"`
	Repairs         int     `json:"repairs"`
	Rebuilds        int     `json:"rebuilds"`
	// Energy is the swarm's total distance traveled over the run (meters)
	// — the bench-off's movement-cost axis.
	Energy float64 `json:"energy"`
	// DeltaPerLength is the Dutta-style tour-efficiency score: mean δ
	// normalized by mean per-node travel, DeltaMean / (1 + Energy/k).
	// The +1 meter keeps zero-travel strategies finite and comparable —
	// a strategy only scores better here by buying δ with meters.
	DeltaPerLength float64 `json:"delta_per_length"`
}

// RunCell executes one cell end to end: build the environment (plain
// field, generated dynfield, or trace replay), run the cell's placement
// strategy and its random baseline on the t = 0 reference slice, and
// (when the spec has a mobile phase) run the movement swarm
// under the cell's fault profile. A panic
// anywhere inside is converted into the cell's Err — per-cell isolation —
// so one degenerate scenario cannot abort a thousand-cell batch. It is
// exported for internal/dsweep, whose workers run leased cells through
// exactly this path so a distributed sweep's per-cell results are
// bit-identical to a local run's.
func RunCell(s *Spec, c Cell, reg *obs.Registry) (res Result) {
	name := c.Strategy
	if name == "" {
		name = "fra" // pre-strategy specs and checkpoints
	}
	res = Result{
		Index: c.Index, Digest: s.Digest(c),
		Field: c.EnvLabel(), K: c.K, Rc: c.Rc, Strategy: name,
		FaultRate: c.Fault.Rate, Seed: c.Seed,
	}
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	dyn, err := c.BuildEnv()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	ref := field.Slice(dyn, 0)

	// Static phase: the cell's placement strategy against the reference
	// surface. For "fra" the registry forwards to core.FRA with exactly
	// the arguments this function used to pass, so a sweep cell still
	// reproduces the Fig. 7 series bit for bit.
	placer, err := strategy.LookupPlacement(name)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	p, err := placer.Place(ref, strategy.PlaceOptions{
		K: c.K, Rc: c.Rc, GridN: s.GridN, Seed: c.Seed, Metrics: reg,
	})
	if err != nil {
		res.Err = fmt.Sprintf("%s: %v", name, err)
		return res
	}
	ev, err := core.Evaluate(ref, p, c.Rc, s.DeltaN)
	if err != nil {
		res.Err = fmt.Sprintf("evaluate %s: %v", name, err)
		return res
	}
	res.Delta = ev.Delta
	res.Refined = p.Refined
	res.Relays = p.Relays
	res.Connected = ev.Connected

	if s.RandomDraws > 0 {
		// The random baselines reuse FRA's reconstruction anchors (the
		// region corners) for fairness.
		corners := ref.Bounds().Corners()
		anchors := append([]geom.Vec2(nil), corners[:]...)
		sum := 0.0
		for d := 0; d < s.RandomDraws; d++ {
			r := core.RandomPlacement(ref.Bounds(), c.K, c.Seed+int64(d))
			r.Anchors = anchors
			rev, err := core.Evaluate(ref, r, c.Rc, s.DeltaN)
			if err != nil {
				res.Err = fmt.Sprintf("evaluate random draw %d: %v", d, err)
				return res
			}
			sum += rev.Delta
		}
		res.DeltaRandom = sum / float64(s.RandomDraws)
	}

	if s.Slots > 0 {
		m, err := runMobileCell(s, c, dyn, reg)
		if err != nil {
			res.Err = fmt.Sprintf("mobile: %v", err)
			return res
		}
		res.Mobile = m
	}
	return res
}

// runMobileCell runs the cell's movement swarm for Spec.Slots slots under
// the cell's fault profile, with the per-rate setup eval.DegradationSweep
// also uses: grid initial layout, robust curvature fits whenever faults are
// active, and a collection tree maintained over the survivors. The
// controllers come from the cell strategy's movement phase — CMA for
// strategies without one of their own.
func runMobileCell(s *Spec, c Cell, dyn field.DynField, reg *obs.Registry) (*MobileResult, error) {
	opts := sim.DefaultOptions()
	opts.Config.Region = dyn.Bounds()
	opts.Config.Rc = c.Rc
	opts.Config.RobustFit = c.Fault.Rate > 0
	opts.Seed = c.Seed
	opts.Faults = c.Fault.NewInjector(c.K, s.Slots, c.Seed)
	opts.Metrics = reg
	opts.NewController = strategy.MovementFor(c.Strategy).NewController
	w, err := sim.NewWorld(dyn, field.GridLayout(dyn.Bounds(), c.K), opts)
	if err != nil {
		return nil, err
	}
	row, err := eval.RunDegradation(w, s.Slots, s.DeltaN)
	if err != nil {
		return nil, err
	}
	return &MobileResult{
		DeltaEnd:        row.DeltaEnd,
		DeltaMean:       row.DeltaMean,
		ConvergenceT:    row.ConvergenceT,
		Converged:       row.Converged,
		ConnectedUptime: row.ConnectedUptime,
		SinkReach:       row.SinkReach,
		AliveEnd:        row.AliveEnd,
		Deaths:          row.Deaths,
		Repairs:         row.Repairs,
		Rebuilds:        row.Rebuilds,
		Energy:          row.Energy,
		DeltaPerLength:  row.DeltaMean / (1 + row.Energy/float64(c.K)),
	}, nil
}
