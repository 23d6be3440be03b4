package experiments

import (
	"smtexplore/internal/runner"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// Options configures how the cell primitives run a cell. The zero value
// reuses no results; DefaultOptions adds a fresh cache. Every cell is a
// deterministic, isolated simulation, so its result is the same whether
// the cache is shared, fresh or nil.
type Options struct {
	// Cache reuses results of identical cells — shared solo baselines,
	// Figure 1 duos reappearing as Figure 2 diagonals, an ablation's
	// default row that is also a Figure 3 cell. Share one cache across
	// calls to dedup between figures; nil disables reuse.
	Cache *runner.Cache
	// Observe emits per-cell observability artifacts (pipeline trace,
	// occupancy series, metrics snapshot) for matching cells; nil
	// observes nothing. Observed cells always simulate — the cache is
	// bypassed for them in both directions.
	Observe *Observe
	// Checkpoint makes keyed kernel cells pausable: they periodically
	// snapshot the machine into the sink, resume from a stored snapshot
	// instead of cycle zero, and yield ErrCellPreempted when asked to
	// stop. Nil (or a disabled config) runs cells uninterruptibly.
	// Observed cells are never checkpointed (instruments hold live
	// callbacks a snapshot cannot carry).
	Checkpoint *Checkpointing
	// Meter, when set, is told how each cached cell lookup was
	// satisfied (memory, tier read, or simulated — and the tier bytes
	// moved). The service binds a per-tenant meter here for store
	// accounting; nil meters nothing.
	Meter runner.Meter
}

// DefaultOptions is a fresh per-call cache.
func DefaultOptions() Options {
	return Options{Cache: runner.NewCache()}
}

// measureCPI is the cached single-cell stream measurement. The key is
// the full cell content: machine configuration, ordered stream specs
// (order matters — the simulated core is not perfectly symmetric in its
// context index) and window.
func (o Options) measureCPI(mcfg smt.Config, specs []streams.Spec, window uint64) ([]float64, error) {
	if label := StreamCellLabel(specs, window); o.Observe.wants(label) {
		ins := o.Observe.instruments()
		cpi, err := measureCPIWith(mcfg, specs, window, ins)
		if err != nil {
			return nil, err
		}
		return cpi, o.export(ins, label, false)
	}
	return runner.CachedMetered(o.Cache, StreamCellKey(mcfg, specs, window), o.Meter, func() ([]float64, error) {
		return MeasureCPI(mcfg, specs, window)
	})
}

// runKernel is the cached single-cell kernel run, keyed by the cell's
// content. Observed cells bypass the cache (a hit has nothing to trace)
// and are never checkpointed (instruments hold live callbacks a
// snapshot cannot carry).
func (o Options) runKernel(c kernelCell) (KernelMetrics, error) {
	if o.Observe.wants(c.observeLabel) {
		ins := o.Observe.instruments()
		km, err := c.run(ins, nil)
		if err != nil {
			return KernelMetrics{}, err
		}
		return km, o.export(ins, c.observeLabel, true)
	}
	return runner.CachedMetered(o.Cache, c.key, o.Meter, func() (KernelMetrics, error) {
		return c.run(nil, o.Checkpoint)
	})
}
