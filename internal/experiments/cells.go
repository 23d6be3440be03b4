package experiments

import (
	"fmt"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/obs"
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
// its config (the key ingredient) and display label.
func namedKernelPlan(kernel string, size int) (cfg any, label string, err error) {
	switch kernel {
	case "mm":
		if size <= 0 {
			return nil, "", fmt.Errorf("experiments: mm needs a size > 0")
		}
		return mm.DefaultConfig(size), fmt.Sprintf("N=%d", size), nil
	case "lu":
		if size <= 0 {
			return nil, "", fmt.Errorf("experiments: lu needs a size > 0")
		}
		return lu.DefaultConfig(size), fmt.Sprintf("N=%d", size), nil
	case "cg":
		c := cg.DefaultConfig()
		if size > 0 {
			c.N = size
		}
		return c, fmt.Sprintf("n=%d nnz/row=%d iters=%d", c.N, c.NNZPerRow, c.Iters), nil
	case "bt":
		c := bt.DefaultConfig()
		if size > 0 {
			c.G = size
		}
		return c, fmt.Sprintf("G=%d steps=%d", c.G, c.Steps), nil
	}
	return nil, "", fmt.Errorf("experiments: unknown kernel %q", kernel)
}

// newBuilder constructs the kernel a config value describes. Cells
// build inside the cell, so concurrent cells share no state.
func newBuilder(cfg any) (Builder, error) {
	switch c := cfg.(type) {
	case mm.Config:
		return mm.New(c)
	case lu.Config:
		return lu.New(c)
	case cg.Config:
		return cg.New(c)
	case bt.Config:
		return bt.New(c)
	}
	return nil, fmt.Errorf("experiments: no kernel takes a %T", cfg)
}

// kernelCell is one resolved kernel cell: what to build, on which
// machine, and under which content key.
type kernelCell struct {
	key  string
	mcfg smt.Config
	cfg  any // the kernel's Config value
	mode kernels.Mode
	// label is the instance label the metrics carry ("N=64"); it is the
	// same for every variant, so variants that change nothing share the
	// canonical cell's key and result.
	label string
	// observeLabel names the cell's observe artifacts (KernelCellLabel).
	observeLabel string
	selective    bool
}

// resolveKernelCell resolves the canonical (kernel, size, mode) cell
// under a named variant ("" is the canonical cell). The key hashes the
// overridden configurations, so a variant that changes nothing keeps
// the canonical key; the selective variant, whose plan only its own
// profiling pass can make, adds its name.
func resolveKernelCell(kernel string, size int, mode kernels.Mode, variant string) (kernelCell, error) {
	cfg, label, err := namedKernelPlan(kernel, size)
	if err != nil {
		return kernelCell{}, err
	}
	c := kernelCell{mcfg: KernelMachineConfig(), cfg: cfg, mode: mode, label: label, observeLabel: KernelCellLabel(kernel, label, mode, variant)}
	if variant != "" {
		v, ok := LookupVariant(variant)
		if !ok {
			return kernelCell{}, fmt.Errorf("experiments: unknown variant %q", variant)
		}
		if c.cfg, err = v.apply(&c.mcfg, c.cfg); err != nil {
			return kernelCell{}, err
		}
		c.selective = v.Selective
	}
	key := []any{"kernel", c.mcfg, kernel, c.cfg, mode, label}
	if c.selective {
		key = append(key, variant)
	}
	c.key = runner.Key(key...)
	return c, nil
}

// KernelCellKey is the content key of the canonical (kernel, size, mode)
// cell — the key NamedKernelCell caches under, exported for store
// probing alongside StreamCellKey.
func KernelCellKey(kernel string, size int, mode kernels.Mode) (string, error) {
	return VariantCellKey(kernel, size, mode, "")
}

// VariantCellKey is the content key VariantKernelCell caches under.
func VariantCellKey(kernel string, size int, mode kernels.Mode, variant string) (string, error) {
	c, err := resolveKernelCell(kernel, size, mode, variant)
	return c.key, err
}

// KernelModes lists the execution modes the canonical (kernel, size)
// instance implements, in its presentation order — the order the
// Figure 3/4/5 tables list them in, so a planner that defaults to "all
// modes" reproduces the figures' row order exactly.
func KernelModes(kernel string, size int) ([]kernels.Mode, error) {
	cfg, _, err := namedKernelPlan(kernel, size)
	if err != nil {
		return nil, err
	}
	b, err := newBuilder(cfg)
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
	return VariantKernelCell(o, kernel, size, mode, "")
}

// VariantKernelCell runs the canonical (kernel, size, mode) cell under
// the named variant (see Variant; "" is NamedKernelCell). The ablation,
// selective-halting and sensitivity tables are grids of these cells.
func VariantKernelCell(o Options, kernel string, size int, mode kernels.Mode, variant string) (KernelMetrics, error) {
	c, err := resolveKernelCell(kernel, size, mode, variant)
	if err != nil {
		return KernelMetrics{}, err
	}
	return o.runKernel(c)
}

// run simulates the cell: with ins attached when observed, or pausable
// under ck when checkpointing is enabled.
func (c kernelCell) run(ins *obs.Instruments, ck *Checkpointing) (KernelMetrics, error) {
	cfg := c.cfg
	var waits, halts int
	if c.selective {
		var err error
		if cfg, waits, halts, err = c.planSelective(); err != nil {
			return KernelMetrics{}, err
		}
	}
	b, err := newBuilder(cfg)
	if err != nil {
		return KernelMetrics{}, err
	}
	var km KernelMetrics
	if ck.enabled() {
		km, err = runKernelCheckpointed(b, c.mode, c.mcfg, c.label, c.key, ck)
	} else {
		km, err = runKernelWith(b, c.mode, c.mcfg, c.label, ins)
	}
	if err != nil {
		return KernelMetrics{}, err
	}
	km.WaitBarriers, km.HaltBarriers = waits, halts
	return km, nil
}
