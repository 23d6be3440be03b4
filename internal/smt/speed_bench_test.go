package smt

import (
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/kernels"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/streams"
	"smtexplore/internal/trace"
)

func BenchmarkSimRate(b *testing.B) {
	m := New(testConfig())
	defer m.Close()
	m.LoadProgram(0, trace.Forever(chainProg(isa.FAdd, 1024, 6)))
	m.LoadProgram(1, trace.Forever(chainProg(isa.FMul, 1024, 6)))
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Counters().Total(perfmon.UopsRetired))/float64(b.N), "uops/cycle")
}

// loadChainBody is one pass of a dependent load chain striding line by
// line through a region far larger than the L2: every hop misses, so the
// machine spends long spans with nothing to do but wait — the fast-
// forward path's best case and the issue scan's worst.
func loadChainBody(base uint64, sizeBytes int) trace.Program {
	lines := sizeBytes / 64
	return trace.Generate(func(e *trace.Emitter) {
		for i := 0; i < lines && !e.Stopped(); i++ {
			e.Emit(isa.Instr{Op: isa.Load, Dst: isa.R(1), Src1: isa.R(1),
				Addr: base + uint64(i)*64})
		}
	})
}

// benchCycles drives m for b.N cycles and reports the retire rate.
func benchCycles(b *testing.B, m *Machine) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := m.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(m.Counters().Total(perfmon.UopsRetired))/float64(b.N), "uops/cycle")
}

// BenchmarkStepCompute measures the per-cycle stepping cost on a compute-
// bound ILP-6 chain with one and with two hardware contexts.
func BenchmarkStepCompute(b *testing.B) {
	b.Run("ctx=1", func(b *testing.B) {
		m := New(testConfig())
		defer m.Close()
		m.LoadProgram(0, trace.Forever(chainProg(isa.FAdd, 1024, 6)))
		benchCycles(b, m)
	})
	b.Run("ctx=2", func(b *testing.B) {
		m := New(testConfig())
		defer m.Close()
		m.LoadProgram(0, trace.Forever(chainProg(isa.FAdd, 1024, 6)))
		m.LoadProgram(1, trace.Forever(chainProg(isa.IAdd, 1024, 6)))
		benchCycles(b, m)
	})
}

// BenchmarkStepObserver compares the disarmed observer fast path (one
// predictable flag test per cycle) against armed no-op per-cycle and
// per-retire hooks, which force the exact slow path.
func BenchmarkStepObserver(b *testing.B) {
	mk := func() *Machine {
		m := New(testConfig())
		m.LoadProgram(0, trace.Forever(chainProg(isa.FAdd, 1024, 6)))
		m.LoadProgram(1, trace.Forever(chainProg(isa.IAdd, 1024, 6)))
		return m
	}
	b.Run("disarmed", func(b *testing.B) {
		m := mk()
		defer m.Close()
		benchCycles(b, m)
	})
	b.Run("armed=cycle", func(b *testing.B) {
		m := mk()
		defer m.Close()
		m.OnCycle(func() {})
		benchCycles(b, m)
	})
	b.Run("armed=retire", func(b *testing.B) {
		m := mk()
		defer m.Close()
		m.OnRetire(func(RetireInfo) {})
		benchCycles(b, m)
	})
}

// BenchmarkStepMemBound measures a miss-dominated dependent load chain
// with the event-driven fast-forward off and on: with it on, the long
// quiet spans between fills collapse into single skips.
func BenchmarkStepMemBound(b *testing.B) {
	for _, ff := range []struct {
		name string
		on   bool
	}{{"ff=off", false}, {"ff=on", true}} {
		b.Run(ff.name, func(b *testing.B) {
			m := New(testConfig())
			defer m.Close()
			m.SetFastForward(ff.on)
			m.LoadProgram(0, trace.Forever(loadChainBody(0x4000_0000, 8<<20)))
			benchCycles(b, m)
		})
	}
}

// timedCells times b.N runs of cell after one untimed run. The untimed
// run absorbs the allocations that come once after the garbage
// collection the benchmark harness runs before each timing (the
// runtime's own, such as its background scavenger's timer), which
// otherwise land in the first timed run of some timings and not others,
// so allocs/op would vary from run to run.
func timedCells(b *testing.B, cell func()) {
	b.ReportAllocs()
	cell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell()
	}
}

// BenchmarkStreamCell measures whole Figure 1/2 stream cells as the
// experiments layer runs them — streams opened as loop streams
// (streams.Open), 60 000-cycle window — one op per cell: an arithmetic
// solo and an arithmetic pair, whose steady states the periodic skip
// jumps over, an arithmetic pair whose period does not recur within the
// window (longPeriodCells), so it pays for periodic samples without a
// jump, and a memory pair, which the skip never touches.
func BenchmarkStreamCell(b *testing.B) {
	for _, bc := range []struct {
		name string
		cell streamCell
	}{
		{"arith-solo", streamCell{{Kind: streams.FAddS, ILP: streams.MaxILP}}},
		{"arith-pair", streamCell{{Kind: streams.IMulS, ILP: streams.MedILP}, {Kind: streams.FAddS, ILP: streams.MedILP}}},
		{"arith-pair-aperiodic", streamCell{{Kind: streams.FMulS, ILP: streams.MedILP}, {Kind: streams.IDivS, ILP: streams.MedILP}}},
		{"mem-pair", streamCell{{Kind: streams.ILoadS, ILP: streams.MaxILP}, {Kind: streams.FStoreS, ILP: streams.MaxILP}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			timedCells(b, func() {
				m := New(DefaultConfig())
				bc.cell.load(m)
				if _, err := m.Run(60_000); err != nil {
					b.Fatal(err)
				}
				m.Close()
			})
		})
	}
}

// BenchmarkKernelCell measures whole kernel cells of the sim-kernels
// block as the experiments layer runs them — the kernel machine, run to
// completion — one op per cell. Kernel cells step every cycle, so the
// issue stage's select sets their cost.
func BenchmarkKernelCell(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() (programmer, error)
		mode  kernels.Mode
	}{
		{"mm-16-tlp-fine", mm16, kernels.TLPFine},
		{"lu-32-tlp-coarse", lu32, kernels.TLPCoarse},
		{"cg-24-serial", cg24, kernels.Serial},
		{"bt-3-tlp-coarse", bt3, kernels.TLPCoarse},
	} {
		b.Run(bc.name, func(b *testing.B) {
			timedCells(b, func() {
				m := New(kernelConfig())
				loadKernel(b, m, bc.build, bc.mode)
				if res, err := m.Run(0); err != nil || !res.Completed {
					b.Fatalf("run: completed=%v err=%v", res.Completed, err)
				}
				m.Close()
			})
		})
	}
}
