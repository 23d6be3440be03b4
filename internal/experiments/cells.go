package experiments

import (
	"fmt"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/runner"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// StreamCell measures one stream cell — one or two co-executed streams
// over a cycle window — through the options' cache and observe sink.
// It is the one stream-cell primitive: the study engine (and so every
// Figure 1/2 regeneration) and the smtd service both run cells through
// it under the same content key, so they share results in both
// directions.
func (o Options) StreamCell(mcfg smt.Config, specs []streams.Spec, window uint64) ([]float64, error) {
	return o.measureCPI(mcfg, specs, window)
}

// StreamCellKey is the content key a stream-measurement cell is cached
// and stored under, so a planner (the study engine) can probe a store
// for warm results without simulating.
func StreamCellKey(mcfg smt.Config, specs []streams.Spec, window uint64) string {
	return runner.Key("measure-cpi", mcfg, specs, window)
}

// namedKernelPlan resolves the canonical (kernel, size) instance into
// its config (the key ingredient), display label and builder.
func namedKernelPlan(kernel string, size int) (cfg any, label string, build func() (Builder, error), err error) {
	switch kernel {
	case "mm":
		if size <= 0 {
			return nil, "", nil, fmt.Errorf("experiments: mm needs a size > 0")
		}
		c := mm.DefaultConfig(size)
		return c, fmt.Sprintf("N=%d", size), func() (Builder, error) { return mm.New(c) }, nil
	case "lu":
		if size <= 0 {
			return nil, "", nil, fmt.Errorf("experiments: lu needs a size > 0")
		}
		c := lu.DefaultConfig(size)
		return c, fmt.Sprintf("N=%d", size), func() (Builder, error) { return lu.New(c) }, nil
	case "cg":
		c := cg.DefaultConfig()
		if size > 0 {
			c.N = size
		}
		label := fmt.Sprintf("n=%d nnz/row=%d iters=%d", c.N, c.NNZPerRow, c.Iters)
		return c, label, func() (Builder, error) { return cg.New(c) }, nil
	case "bt":
		c := bt.DefaultConfig()
		if size > 0 {
			c.G = size
		}
		label := fmt.Sprintf("G=%d steps=%d", c.G, c.Steps)
		return c, label, func() (Builder, error) { return bt.New(c) }, nil
	}
	return nil, "", nil, fmt.Errorf("experiments: unknown kernel %q", kernel)
}

// KernelCellKey is the content key of the canonical (kernel, size, mode)
// cell — the key NamedKernelCell caches under, exported for store
// probing alongside StreamCellKey.
func KernelCellKey(kernel string, size int, mode kernels.Mode) (string, error) {
	cfg, label, _, err := namedKernelPlan(kernel, size)
	if err != nil {
		return "", err
	}
	return runner.Key("kernel", KernelMachineConfig(), kernel, cfg, mode, label), nil
}

// KernelModes lists the execution modes the canonical (kernel, size)
// instance implements, in its presentation order — the order the
// Figure 3/4/5 tables list them in, so a planner that defaults to "all
// modes" reproduces the figures' row order exactly.
func KernelModes(kernel string, size int) ([]kernels.Mode, error) {
	_, _, build, err := namedKernelPlan(kernel, size)
	if err != nil {
		return nil, err
	}
	b, err := build()
	if err != nil {
		return nil, err
	}
	return b.Modes(), nil
}

// NamedKernelCell runs the canonical (kernel, size, mode) cell on the
// scaled kernel machine through the options' cache. Figures 3–5 run
// their cells through it, so a service request for "mm N=64
// tlp-pfetch" reuses a Figure 3 result and vice versa. size
// selects the matrix dimension for mm/lu (required > 0) and overrides
// the instance defaults for cg (N) and bt (G) when non-zero.
func NamedKernelCell(o Options, kernel string, size int, mode kernels.Mode) (KernelMetrics, error) {
	mcfg := KernelMachineConfig()
	cfg, label, build, err := namedKernelPlan(kernel, size)
	if err != nil {
		return KernelMetrics{}, err
	}
	key := runner.Key("kernel", mcfg, kernel, cfg, mode, label)
	return o.runKernel(key, build, mode, mcfg, label)
}
