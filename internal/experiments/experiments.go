// Package experiments contains the reproduction's cell primitives and
// formatters: a stream cell (StreamCell), a kernel cell
// (NamedKernelCell, or VariantKernelCell under a named override) and a
// Table 1 profiling cell (ProfileCell) on a configured simulated
// machine. Every figure and table — Figures 1–5, Table 1, the
// ablations, selective halting and the sensitivity sweep — is a
// committed studies/*.study.json spec, run cell by cell through the
// study engine.
//
// Two machine configurations are used. Stream experiments (Figures 1-2)
// run on the full-size NetBurst-like machine, since they are
// register/port-bound. Kernel experiments (Figures 3-5, Table 1) run on
// the scaled machine: the L2 is shrunk to 32 KB so the scaled problem
// sizes oversubscribe it the way the paper's inputs oversubscribed the
// Xeon's 512 KB — working-set:cache regimes, not absolute sizes, are what
// the substitution preserves.
package experiments

import (
	"fmt"

	"smtexplore/internal/kernels"
	"smtexplore/internal/mem"
	"smtexplore/internal/obs"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/smt"
	"smtexplore/internal/trace"
)

// StreamMachineConfig is the processor configuration for the synthetic
// stream experiments of Section 4.
func StreamMachineConfig() smt.Config {
	return smt.DefaultConfig()
}

// KernelMachineConfig is the processor configuration for the benchmark
// experiments of Section 5 (scaled L2; see package comment).
func KernelMachineConfig() smt.Config {
	cfg := smt.DefaultConfig()
	cfg.Mem.L2 = mem.CacheConfig{Size: 32 << 10, LineSize: 64, Assoc: 8, Latency: 18}
	return cfg
}

// Builder is the contract every kernel satisfies (mm, lu, cg, bt).
type Builder interface {
	Name() string
	Modes() []kernels.Mode
	Programs(mode kernels.Mode) ([2]trace.Program, error)
}

// KernelMetrics is one row of a Figure 3/4/5 panel group: the paper's
// three monitored events plus execution time and supporting counters.
type KernelMetrics struct {
	Kernel string
	Mode   kernels.Mode
	Label  string // size/instance label, e.g. "N=128"

	// Cycles is total execution time in core cycles (Figure (a) panels).
	Cycles uint64
	// L2ReadMissesWorker is the worker thread's demand L2 read misses —
	// the paper's Figure (b) series for the SPR methods.
	L2ReadMissesWorker uint64
	// L2ReadMissesBoth sums both threads — the paper's Figure (b) series
	// for the TLP methods.
	L2ReadMissesBoth uint64
	// ResourceStallCycles is the store-buffer allocator stall total of
	// both threads (Figure (c)).
	ResourceStallCycles uint64
	// UopsRetired is the µops retired by both threads, including
	// spin-loop traffic (Figure (d)).
	UopsRetired uint64

	// Supporting counters for the analysis sections.
	SpinUops        uint64
	MachineClears   uint64
	HaltTransitions uint64
	PipelineFlushes uint64
	WorkerInstr     uint64
	HelperInstr     uint64

	// WaitBarriers and HaltBarriers are set on a selective-halting cell
	// only: the barriers its profiling pass measured, and those its plan
	// made halt.
	WaitBarriers int `json:",omitempty"`
	HaltBarriers int `json:",omitempty"`
}

// L2MissesReported follows the paper's reporting convention: for the pure
// software-prefetch method only the working thread's misses are presented;
// for all other methods the sum of both threads.
func (m KernelMetrics) L2MissesReported() uint64 {
	if m.Mode == kernels.TLPPfetch {
		return m.L2ReadMissesWorker
	}
	return m.L2ReadMissesBoth
}

// maxKernelCycles bounds any single kernel run (a generous ceiling; runs
// finishing by completion, not budget).
const maxKernelCycles = 8_000_000_000

// RunKernel executes one (kernel, mode) configuration to completion on a
// fresh machine and collects the monitored events.
func RunKernel(b Builder, mode kernels.Mode, mcfg smt.Config, label string) (KernelMetrics, error) {
	return runKernelWith(b, mode, mcfg, label, nil)
}

// runKernelWith is RunKernel with an optional instrument bundle attached
// to the machine for the duration of the run.
func runKernelWith(b Builder, mode kernels.Mode, mcfg smt.Config, label string, ins *obs.Instruments) (KernelMetrics, error) {
	var attach func(*smt.Machine)
	if ins != nil {
		attach = ins.Attach
	}
	m, err := runMachine(b, mode, mcfg, attach)
	if err != nil {
		return KernelMetrics{}, err
	}
	defer m.Close()
	return collectKernelMetrics(b, mode, label, m), nil
}

// runMachine runs the kernel in mode to completion on a fresh machine,
// calling attach (when non-nil) before the programs load, and returns
// the finished machine for the caller to read and close.
func runMachine(b Builder, mode kernels.Mode, mcfg smt.Config, attach func(*smt.Machine)) (*smt.Machine, error) {
	progs, err := b.Programs(mode)
	if err != nil {
		return nil, err
	}
	m := smt.New(mcfg)
	if attach != nil {
		attach(m)
	}
	m.LoadProgram(kernels.WorkerTid, progs[0])
	if progs[1] != nil {
		m.LoadProgram(kernels.HelperTid, progs[1])
	}
	res, err := m.Run(maxKernelCycles)
	switch {
	case err != nil:
		err = fmt.Errorf("experiments: %s/%v: %w", b.Name(), mode, err)
	case !res.Completed:
		err = fmt.Errorf("experiments: %s/%v did not complete within %d cycles", b.Name(), mode, uint64(maxKernelCycles))
	}
	if err != nil {
		// Close releases abandoned stream generators (deadlock, budget);
		// a completed run has already closed its own.
		m.Close()
		return nil, err
	}
	return m, nil
}

// collectKernelMetrics reads the monitored events off a completed run.
func collectKernelMetrics(b Builder, mode kernels.Mode, label string, m *smt.Machine) KernelMetrics {
	c := m.Counters()
	h := m.Hierarchy()
	return KernelMetrics{
		Kernel:              b.Name(),
		Mode:                mode,
		Label:               label,
		Cycles:              m.Cycle(),
		L2ReadMissesWorker:  h.Thread(kernels.WorkerTid).L2ReadMisses,
		L2ReadMissesBoth:    h.Thread(0).L2ReadMisses + h.Thread(1).L2ReadMisses,
		ResourceStallCycles: c.Total(perfmon.ResourceStallCycles),
		UopsRetired:         c.Total(perfmon.UopsRetired),
		SpinUops:            c.Total(perfmon.SpinUopsRetired),
		MachineClears:       c.Total(perfmon.MachineClears),
		HaltTransitions:     c.Total(perfmon.HaltTransitions),
		PipelineFlushes:     c.Total(perfmon.PipelineFlushes),
		WorkerInstr:         c.Get(perfmon.InstrRetired, kernels.WorkerTid),
		HelperInstr:         c.Get(perfmon.InstrRetired, kernels.HelperTid),
	}
}

// Relative returns the execution-time factor of m against the serial
// baseline (>1 means slower than serial).
func Relative(m, serial KernelMetrics) float64 {
	return float64(m.Cycles) / float64(serial.Cycles)
}
