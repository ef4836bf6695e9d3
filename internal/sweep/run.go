package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Workers bounds the worker pool; 0 uses runtime.NumCPU(). The
	// aggregated results are bit-identical for any worker count.
	Workers int
	// Checkpoint is the JSONL checkpoint path; "" disables
	// checkpointing (and therefore resume).
	Checkpoint string
	// Resume replays completed cells from the checkpoint instead of
	// recomputing them. Without it an existing checkpoint is truncated.
	Resume bool
	// MaxCells stops the run after completing that many new cells,
	// leaving the rest for a later -resume. It exists to make
	// "interrupted mid-sweep" a deterministic, testable event rather
	// than a race against a kill signal; 0 means unlimited.
	MaxCells int
	// Stop, when non-nil, aborts cleanly when closed: workers finish
	// the cells they hold, checkpoint them, and return an interrupted
	// report. cmd/sweep wires SIGINT here.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives the sweep counters
	// (sweep_cells_started/completed/failed/resumed_total), the
	// per-cell wall-time histogram sweep_cell_seconds, and the
	// worker-pool gauges sweep_workers / sweep_workers_busy.
	// Observation only: results are bit-identical either way.
	Metrics *obs.Registry
	// OnResult, when non-nil, is invoked once per newly computed cell
	// right after the cell is durably checkpointed (or immediately, with
	// no checkpoint configured). It runs on worker goroutines, so
	// implementations must be safe for concurrent use. Replayed (resumed)
	// cells are not announced. This is the job-runner hook the serve
	// layer streams live sweep progress from; it observes results and
	// must not mutate them.
	OnResult func(Result)
	// Log, when non-nil, receives one progress line per finished cell.
	// Progress lines are for humans; only the aggregated output is
	// deterministic.
	Log io.Writer
}

// Report is the outcome of one Run: the per-cell results in cell-index
// order plus completion bookkeeping.
type Report struct {
	// Name echoes the spec name.
	Name string `json:"name"`
	// Cells are the results of all finished cells, ordered by index.
	// A complete run has exactly NumCells entries; an interrupted one
	// fewer.
	Cells []Result `json:"cells"`
	// Total is the grid size and Failed the number of finished cells
	// with a non-empty Err; both are deterministic for a complete run.
	Total  int `json:"total"`
	Failed int `json:"failed"`
	// Computed, Resumed and Interrupted describe THIS invocation — how
	// many cells ran live versus replayed from the checkpoint, and
	// whether MaxCells or Stop cut the run short. They are excluded
	// from the serialized report so that a resumed sweep's aggregated
	// output stays byte-identical to an uninterrupted one.
	Computed    int  `json:"-"`
	Resumed     int  `json:"-"`
	Interrupted bool `json:"-"`
}

// sweepMetrics is the engine's observability surface; the zero value
// (nil registry) is inert through the obs nil fast path.
type sweepMetrics struct {
	started     *obs.Counter   // sweep_cells_started_total
	completed   *obs.Counter   // sweep_cells_completed_total
	failed      *obs.Counter   // sweep_cells_failed_total
	resumed     *obs.Counter   // sweep_cells_resumed_total
	cellSeconds *obs.Histogram // sweep_cell_seconds
	workers     *obs.Gauge     // sweep_workers: pool size
	busy        *obs.Gauge     // sweep_workers_busy: cells in flight
}

func newSweepMetrics(reg *obs.Registry) sweepMetrics {
	if reg == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		started:     reg.Counter("sweep_cells_started_total"),
		completed:   reg.Counter("sweep_cells_completed_total"),
		failed:      reg.Counter("sweep_cells_failed_total"),
		resumed:     reg.Counter("sweep_cells_resumed_total"),
		cellSeconds: reg.Histogram("sweep_cell_seconds", obs.ExpBuckets(1e-3, 2, 16)),
		workers:     reg.Gauge("sweep_workers"),
		busy:        reg.Gauge("sweep_workers_busy"),
	}
}

// Run executes the spec's scenario grid. Cells are sharded across the
// worker pool by an atomic cursor; each runs in isolation (its own field,
// world and injector; panics become per-cell errors) and lands in an
// index-addressed slot, so the report is bit-identical to a serial run.
// With a checkpoint configured every finished cell is durably recorded
// before the run would admit to having done it, and with Resume set the
// recorded cells are replayed instead of recomputed.
func Run(spec Spec, opts RunOptions) (*Report, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	met := newSweepMetrics(opts.Metrics)
	logw := opts.Log
	if logw == nil {
		logw = io.Discard
	}
	cells := spec.Cells()
	var resumed int

	var prior map[string]Result
	if opts.Checkpoint != "" && opts.Resume {
		var (
			header string
			err    error
		)
		if prior, header, err = ReadCheckpoint(opts.Checkpoint, logw); err != nil {
			return nil, err
		}
		// A header from a different spec means the file's cells belong to
		// another grid: mixing them would silently splice two experiments,
		// so resume refuses outright. Headerless files (pre-header format)
		// fall back to per-cell digest matching with a warning.
		if header != "" && header != spec.SpecDigest() {
			return nil, fmt.Errorf("sweep: checkpoint %s was written by a different spec (digest %s, want %s); refusing resume",
				opts.Checkpoint, header, spec.SpecDigest())
		}
		if header == "" && len(prior) > 0 {
			fmt.Fprintf(logw, "sweep: checkpoint %s has no spec-digest header; trusting per-cell digests\n", opts.Checkpoint)
		}
	}

	// Partition the grid: cells already in the checkpoint are replayed,
	// the rest queue for the pool. Replay re-stamps the index so a
	// reordered (but digest-compatible) spec still aggregates correctly.
	results := make([]Result, len(cells))
	done := make([]bool, len(cells))
	var pending []int
	for i, c := range cells {
		if r, ok := prior[spec.Digest(c)]; ok {
			r.Index = i
			results[i] = r
			done[i] = true
			resumed++
			met.resumed.Inc()
			continue
		}
		pending = append(pending, i)
	}
	capped := opts.MaxCells > 0 && opts.MaxCells < len(pending)
	if capped {
		pending = pending[:opts.MaxCells]
	}

	var ckpt *CheckpointWriter
	if opts.Checkpoint != "" {
		var err error
		// Replayed cells are not re-recorded: with Resume the file is
		// opened for append and their entries are already in it.
		if ckpt, err = NewCheckpointWriter(opts.Checkpoint, spec.SpecDigest(), opts.Resume); err != nil {
			return nil, err
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}
	met.workers.Set(float64(workers))

	// ckptFailure wraps the first checkpoint write error in a fixed
	// concrete type, as atomic.Value requires.
	type ckptFailure struct{ err error }
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		ckptErr  atomic.Value
		logMu    sync.Mutex
		wg       sync.WaitGroup
		timeCell = met.cellSeconds.StartTimer
	)
	worker := func() {
		defer wg.Done()
		for {
			if opts.Stop != nil {
				select {
				case <-opts.Stop:
					stopped.Store(true)
					return
				default:
				}
			}
			if ckptErr.Load() != nil {
				return
			}
			n := int(next.Add(1)) - 1
			if n >= len(pending) {
				return
			}
			i := pending[n]
			met.started.Inc()
			met.busy.Add(1)
			t := timeCell()
			r := RunCell(&spec, cells[i], opts.Metrics)
			t.Stop()
			met.busy.Add(-1)
			met.completed.Inc()
			if r.Err != "" {
				met.failed.Inc()
			}
			results[i] = r
			done[i] = true
			if ckpt != nil {
				if err := ckpt.Append(r); err != nil {
					ckptErr.CompareAndSwap(nil, ckptFailure{err})
					return
				}
			}
			if opts.OnResult != nil {
				opts.OnResult(r)
			}
			logMu.Lock()
			if r.Err != "" {
				fmt.Fprintf(logw, "cell %d/%d %s k=%d rc=%g %s rate=%g seed=%d: FAILED: %s\n",
					i+1, len(cells), r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed, r.Err)
			} else {
				fmt.Fprintf(logw, "cell %d/%d %s k=%d rc=%g %s rate=%g seed=%d: δ=%.2f\n",
					i+1, len(cells), r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed, r.Delta)
			}
			logMu.Unlock()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if f, ok := ckptErr.Load().(ckptFailure); ok {
		if ckpt != nil {
			_ = ckpt.Close()
		}
		return nil, f.err
	}
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			return nil, fmt.Errorf("sweep: close checkpoint: %w", err)
		}
	}
	rep := NewReport(&spec, results, done)
	rep.Resumed = resumed
	rep.Computed = len(rep.Cells) - resumed
	rep.Interrupted = capped || stopped.Load()
	return rep, nil
}

// NewReport assembles a Report from per-cell results in cell-index order,
// skipping indices whose done flag is false. It is the aggregation step
// shared by Run and the distributed coordinator: both feed it the same
// deterministic per-cell results, which is why a distributed sweep's
// JSON/CSV output is byte-identical to a local run's.
func NewReport(spec *Spec, results []Result, done []bool) *Report {
	rep := &Report{Name: spec.Name, Total: spec.NumCells()}
	for i := range results {
		if !done[i] {
			continue
		}
		rep.Cells = append(rep.Cells, results[i])
		if results[i].Err != "" {
			rep.Failed++
		}
	}
	return rep
}
