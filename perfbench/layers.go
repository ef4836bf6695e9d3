package main

import "strings"

// layerMetric is one per-layer metric of the traced run. Moves names the
// end-to-end metric and workload it should move, and where it should
// stay flat — written down before measuring, as the prediction a change
// to that layer is judged against.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// layerMetrics is the traced run's output, in order. Every traced run
// prints all of them; a layer the workload does not exercise reports 0,
// and notApplicable says why.
var layerMetrics = []layerMetric{
	// internal/serve (serve_mix). Hits sit below p50 by construction, so a
	// hit-path or encode regression shows only here.
	{"serve.request_ms.place_miss", "ms", "lower", "serve_mix latency_ms_p50, latency_ms_p90, throughput_per_s"},
	{"serve.request_ms.eval_miss", "ms", "lower", "nothing visible end to end (evals sit below p50)"},
	{"serve.request_ms.hit", "ms", "lower", "nothing visible end to end (hits sit below p50)"},
	{"serve.self_ms", "ms", "lower", "nothing visible end to end: request time minus the replayed layer calls"},
	{"serve.decode_ms", "ms", "lower", "nothing visible end to end"},
	{"serve.encode_ms", "ms", "lower", "nothing visible end to end"},
	{"serve.response_kb", "KB", "lower", "serve_mix alloc_mb_per_op"},
	{"serve.cache_hit_ratio", "ratio", "higher", "serve_mix throughput_per_s; fixed by design at hits/(requests)"},
	{"serve.rejected_429", "count", "lower", "serve_mix success_rate; 0 with nproc clients"},
	// internal/field
	{"field.build_ms", "ms", "lower", "serve_mix latency_ms_p50 (a tiny effect today)"},
	// internal/strategy and internal/core: flat on swarm_2k.
	{"strategy.place_ms.fra", "ms", "lower", "serve_mix latency_ms_p50 and throughput_per_s; sweep_grid throughput_per_s"},
	{"strategy.place_ms.tour", "ms", "lower", "serve_mix latency_ms_p90 and throughput_per_s; sweep_grid throughput_per_s"},
	{"strategy.place_ms.lloyd", "ms", "lower", "serve_mix latency_ms_p90 (lloyd populates the tail)"},
	{"core.evaluate_ms", "ms", "lower", "serve_mix latency_ms_p50 and throughput_per_s; sweep_grid throughput_per_s"},
	{"core.fra_refined", "count/run", "higher", "serve_mix and sweep_grid delta"},
	{"core.fra_relays", "count/run", "lower", "serve_mix and sweep_grid delta"},
	{"core.fra_attempts", "count/run", "lower", "serve_mix latency_ms_p50 (wasted argmax scans)"},
	{"core.fra_banned", "count/run", "lower", "serve_mix latency_ms_p50"},
	{"core.fra_accept_ratio", "ratio", "higher", "serve_mix latency_ms_p50: refined over attempts, the wasted-work ratio"},
	{"core.fra_shortfall", "count", "lower", "sweep_grid delta: fra cells placing fewer than k nodes"},
	// internal/engine, internal/curvature, internal/sim: flat on serve_mix.
	{"engine.sense_ms", "ms", "lower", "swarm_2k throughput_per_s and latency_ms_p50; sweep_grid throughput_per_s"},
	{"engine.fit_ms", "ms", "lower", "swarm_2k throughput_per_s and latency_ms_p50 (about 70% of a slot)"},
	{"engine.exchange_ms", "ms", "lower", "swarm_2k throughput_per_s; sweep_grid throughput_per_s (serial faulty exchange)"},
	{"engine.plan_ms", "ms", "lower", "swarm_2k throughput_per_s"},
	{"engine.resolve_ms", "ms", "lower", "swarm_2k throughput_per_s"},
	{"engine.move_ms", "ms", "lower", "swarm_2k throughput_per_s"},
	{"engine.account_ms", "ms", "lower", "swarm_2k throughput_per_s"},
	{"engine.slot_self_ms", "ms", "lower", "swarm_2k throughput_per_s: slot minus its stages"},
	{"curvature.fit_us_per_node", "us", "lower", "swarm_2k throughput_per_s and latency_ms_p50"},
	{"engine.neighbor_reuse_ratio", "ratio", "higher", "swarm_2k throughput_per_s"},
	{"engine.index_rebuilds", "count/slot", "lower", "swarm_2k throughput_per_s"},
	{"engine.moved_per_slot", "count", "lower", "swarm_2k delta (behaviour, not speed)"},
	{"engine.lcm_follows_per_slot", "count", "lower", "swarm_2k delta (behaviour, not speed)"},
	{"engine.stage_span_ratio", "ratio", "higher", "none: decorator stage time over engine_stage_seconds, a cross-check"},
	{"sim.delta_ms", "ms", "lower", "sweep_grid throughput_per_s (δ every mobile slot)"},
	// internal/sweep and internal/fault (sweep_grid).
	{"sweep.cell_ms_p50", "ms", "lower", "sweep_grid throughput_per_s"},
	{"sweep.cell_ms_p90", "ms", "lower", "sweep_grid throughput_per_s and latency_ms_p90 (the idle tail)"},
	{"sweep.static_ms", "ms", "lower", "sweep_grid throughput_per_s"},
	{"sweep.random_ms", "ms", "lower", "sweep_grid throughput_per_s"},
	{"sweep.mobile_ms", "ms", "lower", "sweep_grid throughput_per_s"},
	{"sweep.worker_busy_ratio", "ratio", "higher", "sweep_grid throughput_per_s: cell time over workers x wall"},
	{"sweep.checkpoint_ms", "ms", "lower", "sweep_grid throughput_per_s"},
	{"sweep.checkpoint_kb", "KB", "lower", "sweep_grid alloc_mb_per_op"},
	{"sweep.aggregate_ms", "ms", "lower", "sweep_grid throughput_per_s"},
	{"fault.deaths", "count", "lower", "sweep_grid delta; must repeat exactly from grid to grid"},
	{"fault.link_drops", "count", "lower", "sweep_grid delta; must repeat exactly from grid to grid"},
	// The benchmark itself.
	{"trace_overhead", "ratio", "higher", "none: traced throughput over untraced throughput"},
}

// notApplicable lists, per workload, the metric-name prefixes of layers
// it does not exercise or that cannot be measured from outside the
// program, with the reason. Those metrics report 0.
var notApplicable = map[string]map[string]string{
	"serve_mix": {
		"engine.":    "no slot runs behind /v1/place and /v1/eval",
		"curvature.": "no slot runs behind /v1/place and /v1/eval",
		"sim.":       "no slot runs behind /v1/place and /v1/eval",
		"sweep.":     "no sweep job is submitted",
		"fault.":     "no sweep job is submitted",
	},
	"swarm_2k": {
		"serve.":    "no HTTP: the swarm is stepped directly",
		"field.":    "the forest is built once, at set-up",
		"strategy.": "the swarm starts at seeded random positions",
		"core.":     "the swarm starts at seeded random positions",
		"sweep.":    "no sweep runs",
		"fault.":    "the run is fault-free",
	},
	"sweep_grid": {
		"serve.":                  "no HTTP: sweep.Run is called directly",
		"strategy.place_ms.lloyd": "lloyd is not on the grid",
		"sim.delta_ms":            "δ is evaluated inside eval.RunDegradation, which cannot be split from outside",
		"engine.stage_span_ratio": "cells build their worlds inside the replayed calls, so stage times come from engine_stage_seconds and there are no decorators to cross-check",
	},
}

// applicable reports whether metric name is measured on workload w, and
// the reason when it is not.
func applicable(w, name string) (bool, string) {
	for prefix, why := range notApplicable[w] {
		if strings.HasPrefix(name, prefix) {
			return false, why
		}
	}
	return true, ""
}
