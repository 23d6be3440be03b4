package main

import (
	"fmt"
	"math/rand"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/service"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
	"smtexplore/internal/trace"
)

// Every workload draws its cells from the fixed universes below, and the
// committed oracle holds the expected result of each. Only stream and
// kernel cells appear: harness cells are slated for removal.

// streamCell is a stream cell of one or two co-executed streams.
func streamCell(window uint64, parts ...streams.Spec) service.CellSpec {
	sp := service.CellSpec{Type: service.TypeStream, Window: window}
	for _, p := range parts {
		sp.Streams = append(sp.Streams, service.StreamSpec{Kind: p.Kind.String(), ILP: p.ILP.String()})
	}
	return sp
}

// kernelCell is a canonical (kernel, size, mode) cell.
func kernelCell(kernel string, size int, mode kernels.Mode) service.CellSpec {
	return service.CellSpec{Type: service.TypeKernel, Kernel: kernel, Size: size, Mode: mode.String()}
}

// Warm-up cells, one per cell type, outside every draw universe so they
// leave no drawn cell warm.
var (
	warmStream = streamCell(480_000, streams.Spec{Kind: streams.IAddS, ILP: streams.MaxILP})
	warmKernel = kernelCell("bt", 4, kernels.Serial)
)

// simStreamWindow is the sim-streams cells' window: half the Figure 1/2
// window, so that a run times each cell sixty times (see README.md:
// cells of the full window, timed half as often, were less steady). No
// cluster-cold window equals it.
const simStreamWindow = experiments.StreamWindowCycles / 2

// simStreamsBlock is one block of the sim-streams loop: every stream
// kind at every ILP degree once solo and once co-scheduled with a
// partner at the same degree, on simStreamWindow. The seed pairs
// subjects with partners by permutation, so every kind is a partner
// once per degree and all blocks carry about the same work.
func simStreamsBlock(rng *rand.Rand) []service.CellSpec {
	kinds := streams.All()
	var out []service.CellSpec
	for _, ilp := range streams.Levels() {
		partner := rng.Perm(len(kinds))
		for i, k := range kinds {
			s, p := streams.Spec{Kind: k, ILP: ilp}, streams.Spec{Kind: kinds[partner[i]], ILP: ilp}
			out = append(out,
				streamCell(simStreamWindow, s),
				streamCell(simStreamWindow, s, p))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// simStreamsUniverse is every cell simStreamsBlock can draw.
func simStreamsUniverse() []service.CellSpec {
	kinds := streams.All()
	var out []service.CellSpec
	for _, k := range kinds {
		for _, ilp := range streams.Levels() {
			out = append(out, streamCell(simStreamWindow, streams.Spec{Kind: k, ILP: ilp}))
			for _, p := range kinds {
				out = append(out, streamCell(simStreamWindow, streams.Spec{Kind: k, ILP: ilp}, streams.Spec{Kind: p, ILP: ilp}))
			}
		}
	}
	return out
}

// simKernelsBlock is the sim-kernels loop's block: every kernel in its
// serial, work-partitioned and prefetching modes, at sizes where a cell
// runs for 5–60 ms on the reference machine, so that a run times each
// cell eighty times or more (see README.md: longer cells timed fewer
// times were not steady). The problems are small and most of their L2
// misses are cold ones, but the block still makes twice the L1 accesses
// per cycle of the stream cells, misses in the L2 on 4.7% of accesses
// against 0.2%, and queues 16 times as long at the L2.
func simKernelsBlock(*rand.Rand) []service.CellSpec {
	var out []service.CellSpec
	add := func(kernel string, size int, modes ...kernels.Mode) {
		for _, m := range modes {
			out = append(out, kernelCell(kernel, size, m))
		}
	}
	add("mm", 16, kernels.Serial, kernels.TLPFine, kernels.TLPCoarse, kernels.TLPPfetch)
	add("lu", 16, kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch)
	add("lu", 32, kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch)
	add("cg", 24, kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch, kernels.TLPPfetchWork)
	add("bt", 2, kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch)
	add("bt", 3, kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch)
	return out
}

// kernelCellsAt is every mode mm and lu implement, at matrix size n.
func kernelCellsAt(n int) []service.CellSpec {
	var out []service.CellSpec
	for _, m := range []kernels.Mode{kernels.Serial, kernels.TLPFine, kernels.TLPCoarse, kernels.TLPPfetch, kernels.TLPPfetchWork, kernels.SerialPrefetch} {
		out = append(out, kernelCell("mm", n, m))
	}
	for _, m := range []kernels.Mode{kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch} {
		out = append(out, kernelCell("lu", n, m))
	}
	return out
}

// clusterWindows are the stream windows cluster-cold draws from. Job
// latency on the coordinator is quantized by its progress polls, one
// every 60–90 ms: a job is seen done at the first poll after its cell
// ends. On the shared reference host a cell's run time varies up to 3×
// with other tenants' load, so these windows (5–15 ms of run time) end
// every cell well before the first poll: the gated p50 and p75 then
// read the first poll plus the submit and forward costs and stay put.
// Worker-side costs show in the traced run's per-layer figures; in the
// gated ones only once they push jobs past the first poll, about 50 ms
// a job. The windows are unlike any the other workloads use.
var clusterWindows = []uint64{20_000, 25_000, 30_000, 35_000, 40_000, 45_000, 50_000, 55_000}

// clusterStreamUniverse is every stream cell cluster-cold can draw: each
// kind × ILP × window as a same-kind duo, so stream cells cost about
// the same and job latency does not split into solo and duo modes.
func clusterStreamUniverse() []service.CellSpec {
	var out []service.CellSpec
	for _, w := range clusterWindows {
		for _, k := range streams.All() {
			for _, ilp := range streams.Levels() {
				s := streams.Spec{Kind: k, ILP: ilp}
				out = append(out, streamCell(w, s, s))
			}
		}
	}
	return out
}

// clusterStreamCells draws n distinct cells of the cluster universe.
// The seed permutes the kind × ILP combinations; the i-th cell takes the
// next combination at a window that shifts with each pass over them, so
// every run draws each combination and each window about equally often
// and runs differ in order and arrival, not in how much work they hold.
func clusterStreamCells(rng *rand.Rand, n int) ([]service.CellSpec, error) {
	var combos []streams.Spec
	for _, k := range streams.All() {
		for _, ilp := range streams.Levels() {
			combos = append(combos, streams.Spec{Kind: k, ILP: ilp})
		}
	}
	if n > len(combos)*len(clusterWindows) {
		return nil, fmt.Errorf("%d stream cells needed, the cluster universe holds %d", n, len(combos)*len(clusterWindows))
	}
	perm := rng.Perm(len(combos))
	out := make([]service.CellSpec, n)
	for i := range out {
		c := perm[i%len(combos)]
		w := clusterWindows[(i/len(combos)+c)%len(clusterWindows)]
		out[i] = streamCell(w, combos[c], combos[c])
	}
	return out, nil
}

// clusterKernelCells are cluster-cold's kernel cells: the L2-resident
// N=32 mm and lu instances, each spanning several checkpoint intervals.
func clusterKernelCells() []service.CellSpec { return kernelCellsAt(32) }

// oracleUniverse is every cell any workload can run.
func oracleUniverse() []service.CellSpec {
	out := []service.CellSpec{warmStream, warmKernel}
	out = append(out, simStreamsUniverse()...)
	out = append(out, simKernelsBlock(nil)...)
	out = append(out, clusterStreamUniverse()...)
	out = append(out, clusterKernelCells()...)
	seen := map[string]bool{}
	uniq := out[:0]
	for _, sp := range out {
		if l := sp.Label(); !seen[l] {
			seen[l] = true
			uniq = append(uniq, sp)
		}
	}
	return uniq
}

// outcome is a cell's simulated result: per-context CPI for a stream
// cell, the monitored-event row for a kernel cell.
type outcome struct {
	CPI    []float64                  `json:"cpi,omitempty"`
	Kernel *experiments.KernelMetrics `json:"kernel,omitempty"`
}

// simCycles is how many cycles the cell simulated.
func simCycles(sp service.CellSpec, o outcome) uint64 {
	if o.Kernel != nil {
		return o.Kernel.Cycles
	}
	return sp.Window
}

// byName finds the value among all whose String is name.
func byName[T fmt.Stringer](all []T, name string) (T, error) {
	for _, v := range all {
		if v.String() == name {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %T %q", zero, name)
}

// streamSpecs resolves a stream cell's streams.
func streamSpecs(sp service.CellSpec) ([]streams.Spec, error) {
	var out []streams.Spec
	for _, s := range sp.Streams {
		kind, err := byName(streams.All(), s.Kind)
		if err != nil {
			return nil, err
		}
		ilp, err := byName(streams.Levels(), s.ILP)
		if err != nil {
			return nil, err
		}
		out = append(out, streams.Spec{Kind: kind, ILP: ilp})
	}
	return out, nil
}

// kernelMode resolves a kernel cell's mode.
func kernelMode(sp service.CellSpec) (kernels.Mode, error) {
	return byName(kernels.AllModes(), sp.Mode)
}

// newBuilder constructs the canonical builder and label of a kernel
// cell — the instance experiments.NamedKernelCell runs, which the
// oracle (generated through NamedKernelCell) confirms on every check.
func newBuilder(sp service.CellSpec) (experiments.Builder, string, error) {
	switch sp.Kernel {
	case "mm":
		b, err := mm.New(mm.DefaultConfig(sp.Size))
		return b, fmt.Sprintf("N=%d", sp.Size), err
	case "lu":
		b, err := lu.New(lu.DefaultConfig(sp.Size))
		return b, fmt.Sprintf("N=%d", sp.Size), err
	case "cg":
		c := cg.DefaultConfig()
		c.N = sp.Size
		b, err := cg.New(c)
		return b, fmt.Sprintf("n=%d nnz/row=%d iters=%d", c.N, c.NNZPerRow, c.Iters), err
	case "bt":
		c := bt.DefaultConfig()
		c.G = sp.Size
		b, err := bt.New(c)
		return b, fmt.Sprintf("G=%d steps=%d", c.G, c.Steps), err
	}
	return nil, "", fmt.Errorf("unknown kernel %q", sp.Kernel)
}

// timedBuilder is the kernels-layer decorator: it times, and records a
// span around, every Builder.Programs call the experiments layer makes.
type timedBuilder struct {
	experiments.Builder
	tr          *tracer
	parent, job int64
	took        *time.Duration
}

func (b timedBuilder) Programs(mode kernels.Mode) ([2]trace.Program, error) {
	sp := b.tr.begin("kernels.build", b.parent, b.job)
	t0 := time.Now()
	defer func() {
		*b.took += time.Since(t0)
		sp.finish()
	}()
	return b.Builder.Programs(mode)
}

// simulate runs one cell in process through the experiments layer, cold
// (no cache). With a tracer the kernel builder is decorated, and the
// time it spends building is added to build.
func simulate(sp service.CellSpec, tr *tracer, parent, job int64, build *time.Duration) (outcome, error) {
	switch sp.Type {
	case service.TypeStream:
		specs, err := streamSpecs(sp)
		if err != nil {
			return outcome{}, err
		}
		cpi, err := experiments.Options{}.StreamCell(experiments.StreamMachineConfig(), specs, sp.Window)
		return outcome{CPI: cpi}, err
	case service.TypeKernel:
		mode, err := kernelMode(sp)
		if err != nil {
			return outcome{}, err
		}
		b, label, err := newBuilder(sp)
		if err != nil {
			return outcome{}, err
		}
		if tr != nil {
			b = timedBuilder{Builder: b, tr: tr, parent: parent, job: job, took: build}
		}
		km, err := experiments.RunKernel(b, mode, experiments.KernelMachineConfig(), label)
		if err != nil {
			return outcome{}, err
		}
		return outcome{Kernel: &km}, nil
	}
	return outcome{}, fmt.Errorf("unsupported cell type %q", sp.Type)
}

// counters are the simulated statistics a replay reads off the machine.
// They depend only on simulator semantics, never on host speed.
type counters struct {
	Cycles        uint64 `json:"cycles"`
	Uops          uint64 `json:"uops"`
	L1Accesses    uint64 `json:"l1_accesses"`
	L1Misses      uint64 `json:"l1_misses"`
	L2Accesses    uint64 `json:"l2_accesses"`
	L2Misses      uint64 `json:"l2_misses"`
	L2QueueCycles uint64 `json:"l2_queue_cycles"`
	PrefIssued    uint64 `json:"prefetch_issued"`
	PrefUseful    uint64 `json:"prefetch_useful"`
}

func (c *counters) add(o counters) {
	c.Cycles += o.Cycles
	c.Uops += o.Uops
	c.L1Accesses += o.L1Accesses
	c.L1Misses += o.L1Misses
	c.L2Accesses += o.L2Accesses
	c.L2Misses += o.L2Misses
	c.L2QueueCycles += o.L2QueueCycles
	c.PrefIssued += o.PrefIssued
	c.PrefUseful += o.PrefUseful
}

// maxKernelCycles bounds a replayed kernel run, as the experiments
// layer bounds its own.
const maxKernelCycles = 8_000_000_000

// replay re-runs a cell directly on the smt layer — build, load, run —
// the way the experiments layer does internally, so the benchmark can
// time Machine.Run and read the memory hierarchy, which the experiments
// layer keeps to itself.
func replay(sp service.CellSpec, tr *tracer, parent, job int64) (counters, time.Duration, error) {
	var m *smt.Machine
	var budget uint64
	switch sp.Type {
	case service.TypeStream:
		specs, err := streamSpecs(sp)
		if err != nil {
			return counters{}, 0, err
		}
		m = smt.New(experiments.StreamMachineConfig())
		for i, s := range specs {
			s.Base = streams.DisjointBase(i)
			m.LoadStream(i, streams.Open(s))
		}
		budget = sp.Window
	case service.TypeKernel:
		mode, err := kernelMode(sp)
		if err != nil {
			return counters{}, 0, err
		}
		b, _, err := newBuilder(sp)
		if err != nil {
			return counters{}, 0, err
		}
		bs := tr.begin("kernels.build", parent, job)
		progs, err := b.Programs(mode)
		bs.finish()
		if err != nil {
			return counters{}, 0, err
		}
		m = smt.New(experiments.KernelMachineConfig())
		m.LoadProgram(kernels.WorkerTid, progs[0])
		if progs[1] != nil {
			m.LoadProgram(kernels.HelperTid, progs[1])
		}
		budget = maxKernelCycles
	default:
		return counters{}, 0, fmt.Errorf("unsupported cell type %q", sp.Type)
	}
	defer m.Close()
	rs := tr.begin("smt.run", parent, job)
	t0 := time.Now()
	res, err := m.Run(budget)
	took := time.Since(t0)
	rs.finish()
	if err != nil {
		return counters{}, 0, err
	}
	if sp.Type == service.TypeKernel && !res.Completed {
		return counters{}, 0, fmt.Errorf("%s did not complete", sp.Label())
	}
	h := m.Hierarchy()
	l1a, l1m, _, _ := h.L1().Stats()
	l2a, l2m, _, _ := h.L2().Stats()
	pi, pu := h.PrefetchStats()
	return counters{
		Cycles:        m.Cycle(),
		Uops:          m.Counters().Total(perfmon.UopsRetired),
		L1Accesses:    l1a,
		L1Misses:      l1m,
		L2Accesses:    l2a,
		L2Misses:      l2m,
		L2QueueCycles: h.L2QueueCycles(),
		PrefIssued:    pi,
		PrefUseful:    pu,
	}, took, nil
}
