package eval

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/collect"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/view"
)

// DegradationRow is one point of the δ-versus-failure-rate sweep: how the
// reconstruction error and the collection network hold up as the fault
// injector's failure-rate knob rises.
type DegradationRow struct {
	// Rate is the run-level failure rate fed to fault.Profile.
	Rate float64
	// DeltaEnd is δ at the end of the run, reconstructed from the
	// surviving nodes only.
	DeltaEnd float64
	// DeltaMean is the mean per-slot δ over the run.
	DeltaMean float64
	// ConnectedUptime is the fraction of slots in which the alive nodes
	// formed a connected network at Rc.
	ConnectedUptime float64
	// SinkReach is the mean fraction of alive nodes with a working route
	// to the collection sink, after tree repair.
	SinkReach float64
	// AliveEnd is the number of nodes still up after the last slot.
	AliveEnd int
	// Deaths is the cumulative node-death count.
	Deaths int
	// Repairs is the total number of vertices re-parented by tree repair
	// across the run (deaths healed without a rebuild).
	Repairs int
	// Rebuilds counts the slots on which movement or a sink death forced
	// a full tree rebuild instead of a local repair.
	Rebuilds int
	// ConvergenceT is the first time at which the swarm's mean
	// displacement drops below ConvergenceEps and stays there for the
	// rest of the run; meaningful only when Converged is true.
	ConvergenceT float64
	// Converged reports whether the swarm settled within the run.
	Converged bool
	// Energy is the swarm's total movement energy over the run — the sum
	// of distance traveled by every node (meters) — the bench-off's cost
	// axis against which δ gains are traded.
	Energy float64
}

// ConvergenceEps is the mean-displacement threshold below which the swarm
// counts as settled — the paper's CMA convergence criterion (≈0.1 m/min
// against a 1 m/min velocity limit).
const ConvergenceEps = 0.1

// DegradationSweep measures graceful degradation: for each failure rate it
// runs the swarm under fault.Profile(rate, slots, seed) — node crashes,
// bursty link loss and sensing faults all scaled by the one knob — while a
// collection tree is maintained over the survivors by local repair where
// possible and rebuild where not. movement names a registered movement
// strategy whose controllers drive the engine's Plan stage; "" means
// "cma". Rate 0 runs the exact fault-free dynamics, so the first row of a
// sweep starting at 0 doubles as the baseline. Rates above 0 enable the
// robust (Huber) curvature fit, the degraded-mode backend that keeps
// outlier samples from hijacking forces.
func DegradationSweep(dyn field.DynField, k, slots, deltaN int, rates []float64, seed int64, movement string) ([]DegradationRow, error) {
	if k < 1 || slots < 1 || deltaN < 1 || len(rates) == 0 {
		return nil, fmt.Errorf("%w: k=%d slots=%d deltaN=%d rates=%v", ErrBadParams, k, slots, deltaN, rates)
	}
	if movement == "" {
		movement = "cma"
	}
	mv, err := strategy.LookupMovement(movement)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	init := field.GridLayout(dyn.Bounds(), k)
	rows := make([]DegradationRow, 0, len(rates))
	for _, rate := range rates {
		opts := sim.DefaultOptions()
		opts.Config.RobustFit = rate > 0
		opts.Faults = fault.NewInjector(k, fault.Profile(rate, slots, seed))
		opts.NewController = mv.NewController
		w, err := sim.NewWorld(dyn, init, opts)
		if err != nil {
			return nil, fmt.Errorf("eval: degradation world rate=%g: %w", rate, err)
		}
		row, err := RunDegradation(w, slots, deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: degradation rate=%g: %w", rate, err)
		}
		row.Rate = rate
		rows = append(rows, row)
	}
	return rows, nil
}

// RunDegradation drives one already-built world for slots steps,
// maintaining a collection tree over the survivors (local repair where
// possible, rebuild where not) and accumulating the row's metrics —
// including the convergence time of the swarm's mean displacement. It is
// the single-rate unit under DegradationSweep, exported so scenario
// harnesses (internal/sweep) can run one fault profile per cell without
// re-running the whole rate grid. Link checks use the world's own Rc.
func RunDegradation(w *sim.World, slots, deltaN int) (DegradationRow, error) {
	var row DegradationRow
	rc := w.Rc()
	inj := w.Injector()
	var tree *collect.Tree
	connected, deltaSlots := 0, 0
	reachSum := 0.0
	conv := -1.0
	for s := 0; s < slots; s++ {
		stats, err := w.Step()
		if err != nil {
			return row, fmt.Errorf("slot %d: %w", s, err)
		}
		if stats.MeanDisplacement < ConvergenceEps {
			if conv < 0 {
				conv = stats.T
			}
		} else {
			conv = -1
		}
		if w.Connected() {
			connected++
		}
		alive := view.Alive{Pos: w.Positions(), Mask: w.AliveMask(), Epoch: s}
		aliveCount := alive.Count()
		if aliveCount >= 3 {
			d, err := w.Delta(deltaN)
			if err != nil {
				return row, fmt.Errorf("slot %d δ: %w", s, err)
			}
			row.DeltaEnd = d
			row.DeltaMean += d
			deltaSlots++
		}
		g := graph.NewUnitDisk(alive.Pos, rc)
		tree, row.Repairs, row.Rebuilds = maintainTree(tree, g, alive, row.Repairs, row.Rebuilds)
		reachSum += sinkReach(tree, alive, aliveCount)
	}
	row.ConnectedUptime = float64(connected) / float64(slots)
	row.SinkReach = reachSum / float64(slots)
	row.Energy = w.TotalEnergy()
	if conv >= 0 {
		row.ConvergenceT = conv
		row.Converged = true
	}
	if deltaSlots > 0 {
		row.DeltaMean /= float64(deltaSlots)
	}
	if inj != nil {
		row.AliveEnd = inj.AliveCount()
		row.Deaths = inj.Deaths()
	} else {
		row.AliveEnd = w.N()
	}
	return row, nil
}

// maintainTree keeps a collection tree alive across one slot: prefer a
// local Repair when only deaths broke routes, fall back to a rebuild (with
// sink re-election onto the lowest alive vertex) when the sink died or
// movement broke surviving links. A partial tree over a partitioned network
// is kept — the reachable side still collects.
func maintainTree(tree *collect.Tree, g *graph.Graph, alive view.Alive, repairs, rebuilds int) (*collect.Tree, int, int) {
	sink := -1
	for v := 0; v < g.N(); v++ {
		if alive.Up(v) {
			sink = v
			break
		}
	}
	if sink == -1 {
		return nil, repairs, rebuilds // whole swarm dead
	}
	rebuild := func() *collect.Tree {
		rebuilds++
		t, err := collect.BuildTreeIn(g, sink, alive)
		if err == nil {
			return t
		}
		var pe *collect.PartialError
		if errors.As(err, &pe) {
			return pe.Tree
		}
		return nil
	}
	if tree == nil || !alive.Up(tree.Sink) {
		return rebuild(), repairs, rebuilds
	}
	// Classify route damage: an alive vertex whose parent link left Rc is
	// movement damage (repair cannot trust the remaining geometry — rebuild);
	// a dead parent or dead vertex en route is death damage (repairable).
	deaths := false
	for v := 0; v < g.N(); v++ {
		p := tree.Parent[v]
		if !alive.Up(v) || p < 0 {
			if alive.Up(v) && v != tree.Sink {
				deaths = true // previously unreached alive vertex: try repair
			}
			continue
		}
		if !alive.Up(p) {
			deaths = true
			continue
		}
		if !adjacent(g, v, p) {
			return rebuild(), repairs, rebuilds
		}
	}
	if !deaths {
		return tree, repairs, rebuilds
	}
	repaired, _, reparented, err := tree.Repair(g, alive)
	if err != nil {
		return rebuild(), repairs, rebuilds
	}
	repairs += reparented
	return repaired, repairs, rebuilds
}

// adjacent reports whether u is a current unit-disk neighbor of v.
func adjacent(g *graph.Graph, v, u int) bool {
	for _, w := range g.Neighbors(v) {
		if w == u {
			return true
		}
	}
	return false
}

// sinkReach returns the fraction of alive vertices with a finite route in
// the tree (0 when the tree is gone or nobody is alive).
func sinkReach(tree *collect.Tree, alive view.Alive, aliveCount int) float64 {
	if tree == nil || aliveCount == 0 {
		return 0
	}
	reached := 0
	for v := range tree.Parent {
		if !alive.Up(v) {
			continue
		}
		if v == tree.Sink || tree.Parent[v] >= 0 {
			reached++
		}
	}
	return float64(reached) / float64(aliveCount)
}

// WriteDegradationTable renders the sweep as an aligned text table.
func WriteDegradationTable(w io.Writer, rows []DegradationRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rate\tδ_end\tδ_mean\tconn_uptime\tsink_reach\tenergy\talive_end\tdeaths\trepairs\trebuilds")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.1f\t%.1f\t%.2f\t%.2f\t%.1f\t%d\t%d\t%d\t%d\n",
			r.Rate, r.DeltaEnd, r.DeltaMean, r.ConnectedUptime, r.SinkReach,
			r.Energy, r.AliveEnd, r.Deaths, r.Repairs, r.Rebuilds)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}

// WriteDegradationCSV renders the sweep as CSV.
func WriteDegradationCSV(w io.Writer, rows []DegradationRow) error {
	var b strings.Builder
	b.WriteString("rate,delta_end,delta_mean,conn_uptime,sink_reach,energy,alive_end,deaths,repairs,rebuilds\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%g,%g,%g,%g,%g,%g,%d,%d,%d,%d\n",
			r.Rate, r.DeltaEnd, r.DeltaMean, r.ConnectedUptime, r.SinkReach,
			r.Energy, r.AliveEnd, r.Deaths, r.Repairs, r.Rebuilds)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("eval: write csv: %w", err)
	}
	return nil
}
