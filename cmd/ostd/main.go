// Command ostd runs the mobile-node (OSTD) experiments of the paper:
// 100 CMA nodes starting from a connected grid over the time-varying
// forest-light field, reporting δ over time (Figs. 8, 9 and 10).
//
// Usage:
//
//	ostd                       # 45 slots (10:00→10:45), δ table
//	ostd -slots 45 -csv        # same as CSV
//	ostd -snap 0,25            # also render topology at those minutes
//	ostd -concurrent -drop 0.2 # goroutine runtime with 20% message loss
//	ostd -fault-rate 0.1       # run with 10% seeded failures injected
//	ostd -fault-sweep 0,0.1,0.3 # δ-vs-failure-rate degradation table
//	ostd -strategy lloyd       # a competitor movement from the registry
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/obscli"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/surface"
)

// obsRun is the command's observability edge (see internal/obs/obscli);
// fatal/fatalf close it first so profiles and metric files are flushed on
// error exits too.
var obsRun *obscli.Run

func fatal(v ...any)                 { obsRun.Close(); log.Fatal(v...) }
func fatalf(format string, v ...any) { obsRun.Close(); log.Fatalf(format, v...) }

// closeRun flushes the observability outputs at a success exit, failing
// the command if an export cannot be written.
func closeRun() {
	if err := obsRun.Close(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ostd: ")

	var (
		k          = flag.Int("k", 100, "number of mobile CPS nodes")
		slots      = flag.Int("slots", 45, "time slots (minutes) to simulate")
		deltaN     = flag.Int("delta-grid", 100, "δ integration lattice divisions")
		beta       = flag.Float64("beta", 2, "repulsion weight β")
		noise      = flag.Float64("noise", 0, "sensing noise standard deviation")
		seed       = flag.Int64("seed", 1, "noise / radio seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of a text table")
		snaps      = flag.String("snap", "", "comma-separated minutes at which to render topology")
		concurrent = flag.Bool("concurrent", false, "use the goroutine-per-node runtime")
		drop       = flag.Float64("drop", 0, "message drop probability (concurrent runtime only)")
		faultRate  = flag.Float64("fault-rate", 0, "run-level failure rate injected via fault.Profile")
		faultSweep = flag.String("fault-sweep", "", "comma-separated failure rates for the degradation sweep")
		faultSeed  = flag.Int64("fault-seed", 1, "fault-injection seed")
		strat      = flag.String("strategy", "cma",
			"movement strategy ("+strings.Join(strategy.MovementNames(), ", ")+")")
	)
	reg := obs.NewRegistry()
	obsRun = obscli.New(reg)
	obsRun.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := obsRun.Start(); err != nil {
		fatal(err)
	}

	snapAt, err := parseSnaps(*snaps)
	if err != nil {
		fatalf("bad -snap: %v", err)
	}
	mv, err := strategy.LookupMovement(*strat)
	if err != nil {
		fatalf("bad -strategy: %v", err)
	}
	if *concurrent && *strat != "cma" {
		fatalf("-concurrent runs the goroutine-per-node CMA runtime; -strategy %s is only available in the staged engine", *strat)
	}

	forest := field.NewForest(field.DefaultForestConfig())
	init := field.GridLayout(forest.Bounds(), *k)

	if *faultSweep != "" {
		rates, err := parseRates(*faultSweep)
		if err != nil {
			fatalf("bad -fault-sweep: %v", err)
		}
		rows, err := eval.DegradationSweep(forest, *k, *slots, *deltaN, rates, *faultSeed, *strat)
		if err != nil {
			fatal(err)
		}
		if *csv {
			err = eval.WriteDegradationCSV(os.Stdout, rows)
		} else {
			err = eval.WriteDegradationTable(os.Stdout, rows)
		}
		if err != nil {
			fatal(err)
		}
		closeRun()
		return
	}

	if *concurrent {
		runConcurrent(forest, init, *slots, *deltaN, *beta, *noise, *seed, *drop, snapAt)
		closeRun()
		return
	}

	opts := sim.DefaultOptions()
	opts.Config.Beta = *beta
	opts.NoiseStd = *noise
	opts.Seed = *seed
	opts.Metrics = reg
	opts.NewController = mv.NewController
	if *faultRate > 0 {
		opts.Config.RobustFit = true
		opts.Faults = fault.NewInjector(*k, fault.Profile(*faultRate, *slots, *faultSeed))
	}
	w, err := sim.NewWorld(forest, init, opts)
	if err != nil {
		fatal(err)
	}
	maybeSnap(forest.Bounds(), w.Positions(), w.Time(), opts.Config.Rc, snapAt)

	rows := []eval.DeltaVsTimeRow{}
	d0, err := w.Delta(*deltaN)
	if err != nil {
		fatal(err)
	}
	rows = append(rows, eval.DeltaVsTimeRow{T: 0, Delta: d0, Connected: w.Connected()})
	for s := 0; s < *slots; s++ {
		st, err := w.Step()
		if err != nil {
			fatal(err)
		}
		d, err := w.Delta(*deltaN)
		if err != nil {
			fatal(err)
		}
		rows = append(rows, eval.DeltaVsTimeRow{
			T: st.T, Delta: d, Moved: st.Moved,
			MeanDisplacement: st.MeanDisplacement, Connected: w.Connected(),
		})
		maybeSnap(forest.Bounds(), w.Positions(), st.T, opts.Config.Rc, snapAt)
	}
	emit(rows, *csv)
	closeRun()
}

func runConcurrent(forest *field.Forest, init []geom.Vec2, slots, deltaN int, beta, noise float64, seed int64, drop float64, snapAt map[float64]bool) {
	opts := dist.DefaultOptions()
	opts.Config.Beta = beta
	opts.NoiseStd = noise
	opts.Seed = seed
	opts.DropProb = drop
	r, err := dist.New(forest, init, opts)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	maybeSnap(forest.Bounds(), r.Positions(), r.Time(), opts.Config.Rc, snapAt)

	var rows []eval.DeltaVsTimeRow
	rows = append(rows, eval.DeltaVsTimeRow{T: 0, Delta: deltaOf(forest, r.Positions(), 0, deltaN), Connected: r.Connected()})
	for s := 0; s < slots; s++ {
		st, err := r.Step()
		if err != nil {
			fatal(err)
		}
		rows = append(rows, eval.DeltaVsTimeRow{
			T: st.T, Delta: deltaOf(forest, r.Positions(), st.T, deltaN),
			Moved: st.Moved, MeanDisplacement: st.MeanDisplacement,
			Connected: r.Connected(),
		})
		maybeSnap(forest.Bounds(), r.Positions(), st.T, opts.Config.Rc, snapAt)
	}
	emit(rows, false)
}

func deltaOf(dyn field.DynField, nodes []geom.Vec2, t float64, n int) float64 {
	slice := field.Slice(dyn, t)
	samples := make([]field.Sample, 0, len(nodes))
	for _, p := range nodes {
		samples = append(samples, field.Sample{Pos: p, Z: slice.Eval(p)})
	}
	d, err := surface.DeltaSamples(slice, samples, n)
	if err != nil {
		fatal(err)
	}
	return d
}

func emit(rows []eval.DeltaVsTimeRow, csv bool) {
	var err error
	if csv {
		err = eval.WriteDeltaVsTimeCSV(os.Stdout, rows)
	} else {
		err = eval.WriteDeltaVsTimeTable(os.Stdout, rows)
	}
	if err != nil {
		fatal(err)
	}
	if conv, ok := eval.ConvergenceTime(rows, 0.1); ok {
		fmt.Printf("converged at t=%.0f min (mean displacement < 0.1)\n", conv)
	} else {
		fmt.Println("not converged within the run")
	}
}

func maybeSnap(region geom.Rect, nodes []geom.Vec2, t float64, rc float64, at map[float64]bool) {
	if !at[t] {
		return
	}
	fmt.Printf("\ntopology at t=%.0f min:\n", t)
	if err := surface.RenderTopologyASCII(os.Stdout, region, nodes, rc, 72, 36); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("rate %v outside [0,1]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSnaps(s string) (map[float64]bool, error) {
	out := map[float64]bool{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out[v] = true
	}
	return out, nil
}
