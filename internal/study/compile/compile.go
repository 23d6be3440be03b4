// Package compile lowers a validated study spec into a deduplicated DAG
// of content-keyed simulation cells plus the table nodes that consume
// them.
//
// Each cell carries the exact content key the cell primitives cache
// and store results under (experiments.StreamCellKey/KernelCellKey), so
// a study deduplicates in three directions at once: within itself (the
// fig2 diagonal reuses fig1 duos), against previous studies sharing a
// store, and against the CLI tools and daemon fleet writing to the same
// store. A kernel variant that changes nothing (an ablation's default
// row, the sensitivity baseline) compiles to the canonical cell.
package compile

import (
	"fmt"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/spec"
)

// DefaultKernelCost is the admission estimate, in simulated cycles, of
// one cold kernel or profile cell (mm/lu N≤128, the cg/bt defaults and
// the Table 1 instances all finish well inside it). Stream cells are
// exact (a measurement runs its window and stops); kernel cells run to
// completion, so this is a deliberately coarse upper-end guess a sweep
// can override with CellCost.
const DefaultKernelCost = 2_000_000

// CellNode is one simulation unit of the plan.
type CellNode struct {
	// Key is the content key shared with the runner cache and the disk
	// store.
	Key string
	// Spec is the service-shaped cell, executable by any backend.
	Spec service.CellSpec
	// Cost is the admission estimate in simulated cycles, charged only
	// when the cell is cold.
	Cost uint64
}

// TableNode maps one sweep's table roles onto plan cell indices. Roles
// are synthesis-internal names ("fadd|min|2", "solo|iadd|max",
// "64|tlp-fine", "64|tlp-pfetch|wait=halt", "mm|serial") the synth
// package reconstructs rows from.
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
	// diagonal re-requesting fig1 duos, an ablation's default row
	// re-requesting a figure cell, …);
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
// validates); compile re-checks only what it alone can know — variant
// names against experiments' table and kernel mode support.
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
		case spec.TableTable1:
			table, err = compileProfile(b, sw)
		default:
			table, err = compileKernel(b, sw)
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
// synthesis is byte-identical to `paper fig1`).
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

// KernelPoint is one cell of a kernel sweep's grid.
type KernelPoint struct {
	Size    int
	Variant string
	Mode    kernels.Mode
}

// Role names the point in its TableNode.
func (p KernelPoint) Role() string {
	if p.Variant == "" {
		return fmt.Sprintf("%d|%s", p.Size, p.Mode)
	}
	return fmt.Sprintf("%d|%s|%s", p.Size, p.Mode, p.Variant)
}

// KernelGrid enumerates a kernel sweep in the figure and table order:
// sizes outer, then variants, then modes (the kernel's own mode order
// when the spec does not pin modes).
func KernelGrid(sw spec.Sweep) ([]KernelPoint, error) {
	kernel := sw.Kernels[0]
	sizes := sw.Sizes
	if len(sizes) == 0 {
		sizes = []int{0} // cg/bt instance default (mm/lu rejected by Validate)
	}
	variants := sw.Variants
	if len(variants) == 0 {
		variants = []string{""}
	}
	var out []KernelPoint
	for _, size := range sizes {
		var modes []kernels.Mode
		if len(sw.Modes) == 0 {
			var err error
			if modes, err = experiments.KernelModes(kernel, size); err != nil {
				return nil, err
			}
		}
		for _, name := range sw.Modes {
			mode, err := spec.ParseMode(name)
			if err != nil {
				return nil, err
			}
			modes = append(modes, mode)
		}
		for _, v := range variants {
			for _, mode := range modes {
				out = append(out, KernelPoint{Size: size, Variant: v, Mode: mode})
			}
		}
	}
	return out, nil
}

// compileKernel compiles one kernel's grid. Each point carries the key
// of its overridden configuration, so a variant that changes nothing
// dedupes onto the canonical cell.
func compileKernel(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	points, err := KernelGrid(sw)
	if err != nil {
		return t, err
	}
	kernel := sw.Kernels[0]
	for _, p := range points {
		key, err := experiments.VariantCellKey(kernel, p.Size, p.Mode, p.Variant)
		if err != nil {
			return t, err
		}
		t.Cells[p.Role()] = b.add(key, CellNode{
			Key: key,
			Spec: service.CellSpec{
				Type: service.TypeKernel, Kernel: kernel,
				Mode: p.Mode.String(), Size: p.Size, Variant: p.Variant,
			},
			Cost: cost(sw, DefaultKernelCost),
		})
	}
	return t, nil
}

// compileProfile compiles a Table 1 grid: kernels outer, modes inner.
func compileProfile(b *builder, sw spec.Sweep) (TableNode, error) {
	t := TableNode{Sweep: sw, Cells: map[string]int{}}
	for _, kernel := range sw.Kernels {
		for _, name := range sw.Modes {
			mode, err := spec.ParseMode(name)
			if err != nil {
				return t, err
			}
			key, err := experiments.ProfileCellKey(kernel, mode)
			if err != nil {
				return t, err
			}
			t.Cells[kernel+"|"+mode.String()] = b.add(key, CellNode{
				Key:  key,
				Spec: service.CellSpec{Type: service.TypeProfile, Kernel: kernel, Mode: mode.String()},
				Cost: cost(sw, DefaultKernelCost),
			})
		}
	}
	return t, nil
}
