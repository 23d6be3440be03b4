package experiments

import (
	"fmt"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/mem"
	"smtexplore/internal/smt"
	"smtexplore/internal/syncprim"
)

// Variant is one named override of a canonical kernel cell: a change to
// the scaled kernel machine, a change to the mm configuration, or the
// §3.1 selective-halting rerun. Specs and cell requests name a variant
// "param=value" (Name); the sensitivity table prints both halves and
// the ablation tables the value.
type Variant struct {
	Param, Value string
	// Machine overrides the scaled kernel machine.
	Machine func(*smt.Config)
	// MM overrides the mm kernel configuration (mm cells only).
	MM func(*mm.Config)
	// Selective profiles the cell's barrier waits, then reruns it with
	// halt embedded in the long ones (lu cells only).
	Selective bool
}

// Name is the variant's spelling in specs and cell requests.
func (v Variant) Name() string { return v.Param + "=" + v.Value }

// variants is the committed table of kernel-cell variants: the
// sensitivity sweep's design parameters (the statically partitioned
// buffer sizes, the front-end width, the halt transition cost, the
// machine-clear penalty and the L2 capacity), the wait primitive and
// precomputation span of the mm prefetcher (§3.1, §3.2), static vs
// fully shared partitioning (§5.3) and selective halting (§3.1). A
// variant that changes nothing — the baseline, spin+pause, a 2-step
// span, static partitioning — is the canonical cell under another name
// and shares its content key.
var variants = func() []Variant {
	l2 := func(kb int) func(*smt.Config) {
		return func(c *smt.Config) {
			c.Mem.L2 = mem.CacheConfig{Size: kb << 10, LineSize: 64, Assoc: 8, Latency: 18}
		}
	}
	vs := []Variant{
		{Param: "baseline", Value: "scaled kernel machine"},
		{Param: "rob", Value: "64", Machine: func(c *smt.Config) { c.ROB = 64 }},
		{Param: "rob", Value: "256", Machine: func(c *smt.Config) { c.ROB = 256 }},
		{Param: "alloc-width", Value: "2", Machine: func(c *smt.Config) { c.AllocWidth = 2; c.RetireWidth = 2 }},
		{Param: "alloc-width", Value: "4", Machine: func(c *smt.Config) { c.AllocWidth = 4; c.RetireWidth = 4 }},
		{Param: "partitioning", Value: "static (halved per thread)", Machine: func(c *smt.Config) { c.NoStaticPartition = false }},
		{Param: "partitioning", Value: "fully shared", Machine: func(c *smt.Config) { c.NoStaticPartition = true }},
		{Param: "halt-wake", Value: "100 cycles", Machine: func(c *smt.Config) { c.HaltWakeLatency = 100 }},
		{Param: "machine-clear", Value: "disabled", Machine: func(c *smt.Config) { c.MachineClearPenalty = 0 }},
		{Param: "l2", Value: "16KB", Machine: l2(16)},
		{Param: "l2", Value: "128KB", Machine: l2(128)},
		{Param: "halt", Value: "selective", Selective: true},
	}
	for _, kind := range []syncprim.WaitKind{syncprim.SpinRaw, syncprim.SpinPause, syncprim.HaltWait} {
		vs = append(vs, Variant{Param: "wait", Value: kind.String(), MM: func(c *mm.Config) { c.PrefetchWait = kind }})
	}
	for _, span := range []int{1, 2, 4, 8, 16} {
		vs = append(vs, Variant{
			Param: "span", Value: fmt.Sprintf("%d steps (%d KB)", span, span*2*2048/1024),
			MM: func(c *mm.Config) { c.SpanSteps = span },
		})
	}
	return vs
}()

// LookupVariant finds a variant by Name.
func LookupVariant(name string) (Variant, bool) {
	for _, v := range variants {
		if v.Name() == name {
			return v, true
		}
	}
	return Variant{}, false
}

// apply overrides the machine and kernel configurations of a canonical
// cell, refusing a variant the cell's kernel does not take.
func (v Variant) apply(mcfg *smt.Config, cfg any) (any, error) {
	if v.Machine != nil {
		v.Machine(mcfg)
		if err := mcfg.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: variant %s: %w", v.Name(), err)
		}
	}
	if v.MM != nil {
		c, ok := cfg.(mm.Config)
		if !ok {
			return nil, fmt.Errorf("experiments: variant %s applies to mm cells only", v.Name())
		}
		v.MM(&c)
		cfg = c
	}
	if _, ok := cfg.(lu.Config); v.Selective && !ok {
		return nil, fmt.Errorf("experiments: variant %s applies to lu cells only", v.Name())
	}
	return cfg, nil
}

// KernelCellLabel names a kernel cell's observe artifacts: the kernel,
// the instance label and the mode ("mm N=16 tlp-fine"), followed by the
// variant when there is one, so no two cells of a figure share a name.
func KernelCellLabel(kernel, label string, mode kernels.Mode, variant string) string {
	l := fmt.Sprintf("%s %s %v", kernel, label, mode)
	if variant == "" {
		return l
	}
	return l + " " + variant
}
