package experiments

import (
	"fmt"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/profile"
	"smtexplore/internal/runner"
)

// Table1Column is one column of Table 1: the per-subunit utilisation of
// the instrumented thread under one execution mode, plus its total
// instruction count (the paper's "Total instr.").
type Table1Column struct {
	Kernel string
	// Mode is "serial", "tlp" (one of the two symmetric work threads) or
	// "spr" (the prefetcher thread).
	Mode string
	// Share maps each Table 1 row to its percentage.
	Share map[profile.Row]float64
	// ALU0Share is the fraction executing on ALU0 specifically — the
	// bottleneck §5.3 identifies for logical-op-heavy code.
	ALU0Share float64
	// TotalInstr is the thread's profiled instruction count.
	TotalInstr uint64
}

// profileCell is one resolved Table 1 profiling cell.
type profileCell struct {
	key    string
	kernel string // the Table 1 heading: "MM", "LU", "CG", "BT"
	column string // "serial", "tlp" or "spr"
	cfg    any
	mode   kernels.Mode
	tid    int // the instrumented thread
}

// resolveProfileCell binds a kernel to its profiling instance (smaller
// than the Figure runs: mixes are size-invariant) and a mode to its
// Table 1 column: serial and tlp-coarse profile the work thread,
// tlp-pfetch the prefetcher.
func resolveProfileCell(kernel string, mode kernels.Mode) (profileCell, error) {
	c := profileCell{mode: mode, tid: kernels.WorkerTid}
	switch kernel {
	case "mm":
		c.kernel, c.cfg = "MM", mm.DefaultConfig(32)
	case "lu":
		c.kernel, c.cfg = "LU", lu.DefaultConfig(32)
	case "cg":
		cfg := cg.DefaultConfig()
		cfg.Iters = 2
		c.kernel, c.cfg = "CG", cfg
	case "bt":
		cfg := bt.DefaultConfig()
		cfg.G = 6
		cfg.Steps = 1
		c.kernel, c.cfg = "BT", cfg
	default:
		return c, fmt.Errorf("experiments: unknown kernel %q", kernel)
	}
	switch mode {
	case kernels.Serial:
		c.column = "serial"
	case kernels.TLPCoarse:
		c.column = "tlp"
	case kernels.TLPPfetch:
		c.column, c.tid = "spr", kernels.HelperTid
	default:
		return c, fmt.Errorf("experiments: Table 1 profiles serial, tlp-coarse and tlp-pfetch, not %v", mode)
	}
	c.key = runner.Key("table1", KernelMachineConfig(), c.kernel, c.cfg, mode, c.tid)
	return c, nil
}

// ProfileCellKey is the content key ProfileCell caches under.
func ProfileCellKey(kernel string, mode kernels.Mode) (string, error) {
	c, err := resolveProfileCell(kernel, mode)
	return c.key, err
}

// ProfileCell is one column of the paper's Table 1: the dynamic
// instruction mix of the kernel's serial thread (mode serial), of one
// TLP work thread (tlp-coarse) or of the SPR prefetcher thread
// (tlp-pfetch), as collected by the Pin-analogue profiler on the
// retirement stream.
func ProfileCell(o Options, kernel string, mode kernels.Mode) (Table1Column, error) {
	c, err := resolveProfileCell(kernel, mode)
	if err != nil {
		return Table1Column{}, err
	}
	col, err := runner.CachedMetered(o.Cache, c.key, o.Meter, func() (Table1Column, error) {
		return profileThread(c.cfg, mode, c.tid)
	})
	if err != nil {
		return Table1Column{}, fmt.Errorf("table1 %s %s: %w", c.kernel, c.column, err)
	}
	col.Kernel, col.Mode = c.kernel, c.column
	return col, nil
}

// profileThread runs the kernel in the given mode and profiles the
// instrumented thread's retired instruction mix.
func profileThread(cfg any, mode kernels.Mode, tid int) (Table1Column, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return Table1Column{}, err
	}
	col := profile.NewCollector()
	m, err := runMachine(b, mode, KernelMachineConfig(), col.Attach)
	if err != nil {
		return Table1Column{}, err
	}
	defer m.Close()
	out := Table1Column{
		Share:      make(map[profile.Row]float64, profile.NumRows),
		ALU0Share:  col.ALU0Share(tid),
		TotalInstr: col.Total(tid),
	}
	for _, row := range profile.Rows() {
		out.Share[row] = col.RowShare(tid, row)
	}
	return out, nil
}
