package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"smtexplore/internal/service"
)

// simWorkers is the in-process loops' concurrency: one simulation per
// host core of the reference machine.
const simWorkers = 2

// simSpec describes one in-process closed loop over cold cells.
type simSpec struct {
	name  string
	block func(*rand.Rand) []service.CellSpec
	// passSeconds is one pass over the block on the reference machine;
	// a run makes seconds/passSeconds passes (at least minPasses).
	passSeconds float64
	// tailP is the percentile reported as job_tail_ms: the highest of
	// p99/p90/p75/p50 that leaves ten of the block's cells beyond it.
	tailP float64
	warm  service.CellSpec
}

// minPasses is the fewest passes a run makes over its block, so every
// cell's cost rests on several timings.
const minPasses = 3

var (
	simStreams = simSpec{name: "sim-streams", block: simStreamsBlock, passSeconds: 0.4, tailP: 0.75, warm: warmStream}
	simKernels = simSpec{name: "sim-kernels", block: simKernelsBlock, passSeconds: 0.28, tailP: 0.5, warm: warmKernel}
)

func setupSimStreams(cfg runCfg, _ int) (env, error) { return setupSim(simStreams, cfg) }
func setupSimKernels(cfg runCfg, _ int) (env, error) { return setupSim(simKernels, cfg) }

// simEnv is a set-up in-process loop: its block drawn and its passes
// ordered from the seed, its warm-up cell run.
type simEnv struct {
	spec   simSpec
	block  []service.CellSpec
	passes [][]service.CellSpec // each a shuffle of block
	warmup []service.CellSpec
}

// setupSim draws the run's block and pass orders from the seed and runs
// the warm-up cell, checked against the oracle.
func setupSim(s simSpec, cfg runCfg) (env, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	e := &simEnv{spec: s, block: s.block(rng), warmup: s.block(rand.New(rand.NewSource(cfg.seed + 1)))}
	for range max(minPasses, int(math.Round(cfg.seconds/s.passSeconds))) {
		r := append([]service.CellSpec(nil), e.block...)
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		e.passes = append(e.passes, r)
	}
	out, err := simulate(s.warm, nil, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	return e, cfg.oracle.check(s.warm, out)
}

func (e *simEnv) close() {}

// simOp is one completed cell of the loop. A traced op also replays
// its cell on the smt layer right after it, on the same worker, so the
// two timings see the same host conditions; the replay is timed apart
// from the op.
type simOp struct {
	cell       service.CellSpec
	traced     bool
	start, end time.Time
	cycles     uint64
	cellMS     float64 // experiments.cell span
	buildMS    float64 // kernels.build inside it
	runMS      float64 // replay: Machine.Run
	ctr        counters
	err        error
}

// loop runs cells on simWorkers goroutines, each taking the next cell
// as soon as its previous one completes, until the list is exhausted or
// the deadline (if any) passes. trOf gives each cell's tracer (nil:
// untraced).
func loop(cells []service.CellSpec, trOf func(int) *tracer, deadline time.Time, o *oracle) []simOp {
	ops := make([]simOp, len(cells))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for range simWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cells) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				ops[i] = runOp(cells[i], int64(i+1), trOf(i), o)
			}
		}()
	}
	wg.Wait()
	var done []simOp
	for _, op := range ops {
		if !op.start.IsZero() {
			done = append(done, op)
		}
	}
	return done
}

// runOp runs one cell through the experiments layer and checks it; a
// traced op then replays it for the smt and mem figures and checks the
// replay's counters.
func runOp(sp service.CellSpec, job int64, tr *tracer, o *oracle) simOp {
	op := simOp{cell: sp, traced: tr != nil}
	root := tr.begin("job", 0, job)
	cs := tr.begin("experiments.cell", root.id, job)
	op.start = time.Now()
	var build time.Duration
	out, err := simulate(sp, tr, cs.id, job, &build)
	op.end = time.Now()
	cs.finishAt(op.end)
	root.finishAt(op.end)
	if err == nil {
		err = o.check(sp, out)
	}
	op.err, op.cycles = err, simCycles(sp, out)
	if tr == nil || err != nil {
		return op
	}
	op.cellMS, op.buildMS = ms(op.end.Sub(op.start)), ms(build)
	rp := tr.begin(replayRoot, 0, job)
	c, run, err := replay(sp, tr, rp.id, job)
	rp.finish()
	if err == nil {
		err = o.checkCounters(sp, c)
	}
	op.ctr, op.runMS, op.err = c, ms(run), err
	return op
}

// cellCost is one block cell's host cost over a run's passes.
type cellCost struct {
	cycles uint64
	ms     []float64
}

// est is the cell's cost over the run: the fastest of its timings.
// Other tenants of the shared reference host slow a core by up to 2×
// for seconds to minutes, so that the median pass of a run moves by 40%
// between runs while the fastest moves by a few percent. The fastest
// timing also drops the program's own costs that hit a cell in only
// some passes — garbage collection, heap growth, the two workers
// contending — so measure prints the median-cost and wall-clock rates
// and the collector's CPU share beside it.
func (c *cellCost) est() float64 { return slices.Min(c.ms) }

// blockRate is the throughput of the fixed block at the cells' costs
// (cost picks a cell's cost from its timings): cells per second and
// simulated Mcycles per second over simWorkers, with each cell's cost.
func blockRate(costs map[string]*cellCost, cost func(*cellCost) float64) (cells, mcyc float64, ests []float64) {
	var sumMS float64
	var sumCycles uint64
	for _, c := range costs {
		if len(c.ms) == 0 {
			continue
		}
		sumMS += cost(c)
		sumCycles += c.cycles
		ests = append(ests, cost(c))
	}
	secs := sumMS / 1000
	return simWorkers * float64(len(ests)) / secs, simWorkers * float64(sumCycles) / secs / 1e6, ests
}

func (e *simEnv) measure(cfg runCfg, tr *tracer) (measurement, error) {
	// Untimed warm-up: let the heap and the host caches settle.
	none := func(int) *tracer { return nil }
	for _, op := range loop(e.warmup, none, time.Now().Add(1500*time.Millisecond), cfg.oracle) {
		if op.err != nil {
			return measurement{}, fmt.Errorf("warm-up: %w", op.err)
		}
	}

	var cells []service.CellSpec
	var passOf []int
	for k, r := range e.passes {
		cells = append(cells, r...)
		for range r {
			passOf = append(passOf, k)
		}
	}
	// A traced run traces every other pass.
	trOf := func(i int) *tracer { return everyOther(tr, passOf[i]) }
	gc0, cpu0 := cpuSeconds()
	t0 := time.Now()
	ops := loop(cells, trOf, time.Time{}, cfg.oracle)
	wall := time.Since(t0).Seconds()
	gc1, cpu1 := cpuSeconds()

	m := newMeasurement()
	all, traced, plain := map[string]*cellCost{}, map[string]*cellCost{}, map[string]*cellCost{}
	add := func(costs map[string]*cellCost, op simOp) {
		c := costs[op.cell.Label()]
		if c == nil {
			c = &cellCost{}
			costs[op.cell.Label()] = c
		}
		c.cycles = op.cycles
		c.ms = append(c.ms, ms(op.end.Sub(op.start)))
	}
	for _, op := range ops {
		if !m.led.record(op.err) {
			continue
		}
		add(all, op)
		if op.traced {
			add(traced, op)
		} else {
			add(plain, op)
		}
	}
	if len(all) != len(e.block) {
		return m, fmt.Errorf("%d of the block's %d cells completed", len(all), len(e.block))
	}
	// The block is the fixed work: its throughput is the block over the
	// sum of its cells' costs, shared by the workers.
	rate, mcyc, ests := blockRate(all, (*cellCost).est)
	p50, tail := percentile(ests, 0.5), percentile(ests, e.spec.tailP)
	medRate, _, _ := blockRate(all, func(c *cellCost) float64 { return median(c.ms) })
	fmt.Printf("%s: %d-cell block × %d passes; %.2f cells/s at fastest cell costs (diagnostics: %.2f at median costs, %.2f wall-clock; GC %.2f%% of CPU)\n",
		e.spec.name, len(e.block), len(e.passes), rate, medRate, float64(len(ops))/wall, 100*(gc1-gc0)/(cpu1-cpu0))
	fmt.Printf("cell cost p50 %.2f ms, p%g %.2f ms (n=%d cells, %d beyond)\n", p50.Value, 100*tail.P, tail.Value, tail.N, tail.Beyond)
	if !tail.ok() {
		return m, fmt.Errorf("the block's p%g rests on %d cells beyond it, fewer than %d", 100*tail.P, tail.Beyond, minBeyond)
	}
	m.e2e["cells_per_s"] = rate
	m.e2e["jobs_per_s"] = rate // a job of the in-process loop is one cell
	m.e2e["sim_mcycles_per_s"] = mcyc
	m.e2e["job_p50_ms"] = p50.Value
	m.e2e["job_tail_ms"] = tail.Value
	if tr == nil {
		return m, nil
	}
	tracedRate, _, _ := blockRate(traced, (*cellCost).est)
	plainRate, _, _ := blockRate(plain, (*cellCost).est)
	m.layer["trace.overhead_frac"] = plainRate/tracedRate - 1
	simLayers(ops, m.layer)
	return m, nil
}

// simLayers derives the per-layer figures from the traced ops: the
// experiments cell and kernels build spans, and the replays' run times
// and simulated counters.
func simLayers(ops []simOp, layer map[string]float64) {
	var cellMS, buildMS, runMS []float64
	var tot counters
	var runTotal float64
	over := map[string][]float64{} // cell → experiments time beyond build and run
	cellOf := map[string][]float64{}
	for _, op := range ops {
		if !op.traced || op.err != nil {
			continue
		}
		cellMS = append(cellMS, op.cellMS)
		if op.cell.Type == service.TypeKernel {
			buildMS = append(buildMS, op.buildMS)
		}
		runMS = append(runMS, op.runMS)
		runTotal += op.runMS
		tot.add(op.ctr)
		l := op.cell.Label()
		over[l] = append(over[l], op.cellMS-op.buildMS-op.runMS)
		cellOf[l] = append(cellOf[l], op.cellMS)
	}
	if tot.Cycles == 0 {
		return
	}
	// The experiments layer's own share: the cell minus the programs'
	// build and the machine's run, the latter timed on the adjacent
	// replay of the same cell; medians per cell damp host bursts.
	var overSum, cellSum float64
	for l := range over {
		overSum += median(over[l])
		cellSum += median(cellOf[l])
	}
	kc := float64(tot.Cycles) / 1000
	layer["experiments.cell_ms_p50"] = percentile(cellMS, 0.5).Value
	layer["experiments.overhead_frac"] = overSum / cellSum
	if len(buildMS) > 0 {
		layer["kernels.build_ms_p50"] = percentile(buildMS, 0.5).Value
	}
	layer["smt.ns_per_cycle"] = runTotal * 1e6 / float64(tot.Cycles)
	layer["smt.run_ms_p50"] = percentile(runMS, 0.5).Value
	layer["smt.uops_per_cycle"] = float64(tot.Uops) / float64(tot.Cycles)
	layer["mem.l1_accesses_per_kcycle"] = float64(tot.L1Accesses) / kc
	layer["mem.l1_miss_ratio"] = ratio(tot.L1Misses, tot.L1Accesses)
	layer["mem.l2_miss_ratio"] = ratio(tot.L2Misses, tot.L2Accesses)
	layer["mem.l2_queue_cycles_per_kcycle"] = float64(tot.L2QueueCycles) / kc
	layer["mem.prefetch_useful_ratio"] = ratio(tot.PrefUseful, tot.PrefIssued)
	fmt.Printf("replayed %d cells: %+v\n", len(runMS), tot)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuSeconds is the CPU time the process has spent so far in garbage
// collection and in total.
func cpuSeconds() (gc, total float64) {
	ss := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(ss)
	return ss[0].Value.Float64(), ss[1].Value.Float64()
}
