// Package compile lowers a validated study spec into a deduplicated DAG
// of content-keyed simulation cells plus the table nodes that consume
// them.
//
// Each cell carries the exact content key the cell primitives cache
// and store results under (experiments.StreamCellKey/KernelCellKey), so
// a study deduplicates in three directions at once: within itself (the
// fig2 diagonal reuses fig1 duos), against previous studies sharing a
// store, and against the CLI tools and daemon fleet writing to the same
// store. Harness cells have no single-unit key — their inner cells are
// the keyed units — so they compile with an empty Key and a coarse cost
// estimate.
package compile

import (
	"fmt"

	"smtexplore/internal/experiments"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/spec"
)

// Cost estimates for admission, in simulated cycles per cold cell.
// Stream cells are exact (a measurement runs its window and stops);
// kernel and harness cells run to completion, so these are deliberately
// coarse upper-end guesses a sweep can override with CellCost.
const (
	// DefaultKernelCost approximates one kernel cell (mm/lu N≤128, the
	// cg/bt defaults all finish well inside this).
	DefaultKernelCost = 2_000_000
	// DefaultHarnessCost approximates one whole-table harness cell.
	DefaultHarnessCost = 10_000_000
)

// CellNode is one simulation unit of the plan.
type CellNode struct {
	// Key is the content key shared with the runner cache and the disk
	// store; empty for harness cells (their inner cells carry the keys).
	Key string
	// Spec is the service-shaped cell, executable by any backend.
	Spec service.CellSpec
	// Cost is the admission estimate in simulated cycles, charged only
	// when the cell is cold.
	Cost uint64
}

// TableNode maps one sweep's table roles onto plan cell indices. Roles
// are synthesis-internal names ("fadd|min|2", "solo|iadd|max",
// "64|tlp-fine", "text|fig1") the synth package reconstructs rows from.
type TableNode struct {
	Sweep spec.Sweep
	Cells map[string]int
}

// Plan is the compiled study: the deduplicated cell list in submission
// order and one table node per sweep.
type Plan struct {
	Spec   *spec.Spec
	Cells  []CellNode
	Tables []TableNode
	// Requested counts grid points before deduplication (the fig2
	// diagonal re-requesting fig1 duos, repeated harnesses, …);
	// Requested - len(Cells) is the work dedupe saved.
	Requested int
}

// Labels returns the display labels of the plan's cells, index-aligned.
func (p *Plan) Labels() []string {
	out := make([]string, len(p.Cells))
	for i, c := range p.Cells {
		out[i] = c.Spec.Label()
	}
	return out
}

// builder accumulates deduplicated cells.
type builder struct {
	plan  *Plan
	index map[string]int // dedupe key → cell index
}

// add registers a cell under its dedupe key and returns its index.
func (b *builder) add(dedupe string, node CellNode) int {
	b.plan.Requested++
	if i, ok := b.index[dedupe]; ok {
		return i
	}
	i := len(b.plan.Cells)
	b.index[dedupe] = i
	b.plan.Cells = append(b.plan.Cells, node)
	return i
}

// Compile lowers the spec. The spec must already be valid (Parse
// validates); compile re-checks only what it alone can know — harness
// names against the service registry and kernel mode support.
func Compile(s *spec.Spec) (*Plan, error) {
	b := &builder{plan: &Plan{Spec: s}, index: map[string]int{}}
	for _, sw := range s.Sweeps {
		var (
			table TableNode
			err   error
		)
		switch sw.EffectiveTable() {
		case spec.TableFig1:
			table, err = compileFig1(b, sw)
		case spec.TableFig2:
			table, err = compileFig2(b, sw)
		case spec.TableKernel:
			table, err = compileKernel(b, sw)
		case spec.TableText:
			table, err = compileText(b, sw)
		default:
			err = fmt.Errorf("unknown table style %q", sw.EffectiveTable())
		}
		if err != nil {
			return nil, fmt.Errorf("compile: sweep %q: %w", sw.Name, err)
		}
		b.plan.Tables = append(b.plan.Tables, table)
	}
	return b.plan, nil
}

// window is the sweep's effective measurement window.
func window(sw spec.Sweep) uint64 {
	if sw.Window > 0 {
		return sw.Window
	}
	return experiments.StreamWindowCycles
}

// cost is the sweep's effective per-cold-cell estimate.
func cost(sw spec.Sweep, def uint64) uint64 {
	if sw.CellCost > 0 {
		return sw.CellCost
	}
	return def
}

// streamCell compiles one stream cell (n co-executed copies of the
// given kind×ILP pairs) and returns its plan index.
func streamCell(b *builder, sw spec.Sweep, pairs [][2]string) (int, error) {
	w := window(sw)
	specs := make([]streams.Spec, len(pairs))
	cellStreams := make([]service.StreamSpec, len(pairs))
	for i, p := range pairs {
		kind, err := spec.ParseKind(p[0])
		if err != nil {
			return 0, err
		}
		ilp, err := spec.ParseILP(p[1])
		if err != nil {
			return 0, err
		}
		specs[i] = streams.Spec{Kind: kind, ILP: ilp}
		cellStreams[i] = service.StreamSpec{Kind: kind.String(), ILP: spec.ILPName(ilp)}
	}
	key := experiments.StreamCellKey(experiments.StreamMachineConfig(), specs, w)
	return b.add(key, CellNode{
		Key:  key,
		Spec: service.CellSpec{Type: service.TypeStream, Streams: cellStreams, Window: w},
		Cost: cost(sw, w),
	}), nil
}

// compileFig1 compiles the solo/duo CPI grid: streams × ILP × threads,
// in spec order (the committed paper specs list the paper's order, so
// synthesis is byte-identical to `streams -fig 1`).
func compileFig1(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	for _, k := range sw.Streams {
		for _, ilpName := range sw.EffectiveILP() {
			ilp, err := spec.ParseILP(ilpName)
			if err != nil {
				return t, err
			}
			for _, n := range sw.EffectiveThreads() {
				pairs := make([][2]string, n)
				for i := range pairs {
					pairs[i] = [2]string{k, ilpName}
				}
				idx, err := streamCell(b, sw, pairs)
				if err != nil {
					return t, err
				}
				t.Cells[fmt.Sprintf("%s|%s|%d", k, spec.ILPName(ilp), n)] = idx
			}
		}
	}
	return t, nil
}

// compileFig2 compiles the pairwise slowdown matrix: solo baselines
// first (one per kind×ILP over the subject∪partner union), then the
// ordered duos.
func compileFig2(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	subjects := sw.Streams
	partners := sw.EffectivePartners()
	union := subjects
	seen := map[string]bool{}
	for _, k := range subjects {
		seen[k] = true
	}
	for _, k := range partners {
		if !seen[k] {
			seen[k] = true
			union = append(append([]string{}, union...), k)
		}
	}
	for _, ilpName := range sw.EffectiveILP() {
		ilp, err := spec.ParseILP(ilpName)
		if err != nil {
			return t, err
		}
		for _, k := range union {
			idx, err := streamCell(b, sw, [][2]string{{k, ilpName}})
			if err != nil {
				return t, err
			}
			t.Cells[fmt.Sprintf("solo|%s|%s", k, spec.ILPName(ilp))] = idx
		}
	}
	for _, ilpName := range sw.EffectiveILP() {
		ilp, err := spec.ParseILP(ilpName)
		if err != nil {
			return t, err
		}
		for _, s := range subjects {
			for _, p := range partners {
				idx, err := streamCell(b, sw, [][2]string{{s, ilpName}, {p, ilpName}})
				if err != nil {
					return t, err
				}
				t.Cells[fmt.Sprintf("duo|%s|%s|%s", s, p, spec.ILPName(ilp))] = idx
			}
		}
	}
	return t, nil
}

// compileKernel compiles one kernel's size×mode grid in the figure
// sweeps' enumeration order (sizes outer, the kernel's own mode order
// inner when the spec does not pin modes).
func compileKernel(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	kernel := sw.Kernels[0]
	sizes := sw.Sizes
	if len(sizes) == 0 {
		sizes = []int{0} // cg/bt instance default (mm/lu rejected by Validate)
	}
	for _, size := range sizes {
		modeNames := sw.Modes
		if len(modeNames) == 0 {
			modes, err := experiments.KernelModes(kernel, size)
			if err != nil {
				return t, err
			}
			modeNames = make([]string, len(modes))
			for i, m := range modes {
				modeNames[i] = m.String()
			}
		}
		for _, modeName := range modeNames {
			mode, err := spec.ParseMode(modeName)
			if err != nil {
				return t, err
			}
			key, err := experiments.KernelCellKey(kernel, size, mode)
			if err != nil {
				return t, err
			}
			idx := b.add(key, CellNode{
				Key: key,
				Spec: service.CellSpec{
					Type: service.TypeKernel, Kernel: kernel,
					Mode: mode.String(), Size: size,
				},
				Cost: cost(sw, DefaultKernelCost),
			})
			t.Cells[fmt.Sprintf("%d|%s", size, mode)] = idx
		}
	}
	return t, nil
}

// compileText compiles whole-harness cells, validated against the
// service's harness registry.
func compileText(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	valid := map[string]bool{}
	for _, n := range service.HarnessNames() {
		valid[n] = true
	}
	for _, h := range sw.Harnesses {
		if !valid[h] {
			return t, fmt.Errorf("unknown harness %q", h)
		}
		idx := b.add("harness|"+h, CellNode{
			Spec: service.CellSpec{Type: service.TypeHarness, Harness: h},
			Cost: cost(sw, DefaultHarnessCost),
		})
		t.Cells["text|"+h] = idx
	}
	return t, nil
}
