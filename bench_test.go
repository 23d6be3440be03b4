package smtexplore_test

// One benchmark per table and figure of the paper's evaluation; each
// runs its committed studies/*.study.json sweep through the study
// engine, as cmd/paper does. Each b.N iteration regenerates the
// complete figure/table (these are macro-benchmarks; run with the
// default -benchtime or -benchtime=1x).
// Key series values are attached as custom metrics so regressions in the
// reproduced *shapes* — not just runtimes — are visible in benchmark
// diffs.

import (
	"context"
	"testing"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/profile"
	"smtexplore/internal/report"
	"smtexplore/internal/runner"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/synth"
	"smtexplore/studies"
)

// bgCtx is the shared context of the figure benchmarks.
var bgCtx = context.Background()

// figureData regenerates the named committed sweeps
// (studies/*.study.json) through the study engine in process on all
// cores, with a fresh result cache (nil: none), and returns the
// paper-claim data the sweeps reconstruct.
func figureData(b *testing.B, workers int, cache *runner.Cache, sweeps ...string) *report.Data {
	b.Helper()
	s, err := studies.Select(sweeps...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := studies.Run(bgCtx, s, &execute.Local{Cache: cache}, workers)
	if err != nil {
		b.Fatal(err)
	}
	d, err := synth.CollectData(res.Plan, res.Results)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkFig1StreamCPI regenerates Figure 1: average CPI of the paper's
// representative streams under the six TLP×ILP execution modes.
func BenchmarkFig1StreamCPI(b *testing.B) {
	var rows []experiments.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = figureData(b, 0, runner.NewCache(), "fig1").Fig1
	}
	for _, r := range rows {
		if r.Stream == streams.FAddS && r.ILP == streams.MaxILP && r.Threads == 1 {
			b.ReportMetric(r.CPI, "fadd-1thr-maxILP-CPI")
		}
		if r.Stream == streams.IAddS && r.ILP == streams.MaxILP && r.Threads == 2 {
			b.ReportMetric(r.CPI, "iadd-2thr-maxILP-CPI")
		}
	}
	// Cold-simulation throughput: every row of the figure is one
	// simulation cell (each iteration starts from a fresh cache).
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(len(rows)*b.N)/sec, "cells/s")
	}
}

// BenchmarkFig2FPPairs regenerates Figure 2(a): pairwise slowdown factors
// of the floating-point streams.
func BenchmarkFig2FPPairs(b *testing.B) {
	var cells []experiments.Fig2Cell
	for i := 0; i < b.N; i++ {
		cells = figureData(b, 0, runner.NewCache(), "fig2a").Fig2a
	}
	for _, c := range cells {
		if c.Subject == streams.FDivS && c.Partner == streams.FDivS && c.ILP == streams.MaxILP {
			b.ReportMetric(c.Slowdown, "fdiv-x-fdiv-slowdown")
		}
		if c.Subject == streams.FAddS && c.Partner == streams.FMulS && c.ILP == streams.MaxILP {
			b.ReportMetric(c.Slowdown, "fadd-x-fmul-slowdown")
		}
	}
}

// BenchmarkFig2IntPairs regenerates Figure 2(b): the integer streams.
func BenchmarkFig2IntPairs(b *testing.B) {
	var cells []experiments.Fig2Cell
	for i := 0; i < b.N; i++ {
		cells = figureData(b, 0, runner.NewCache(), "fig2b").Fig2b
	}
	for _, c := range cells {
		if c.Subject == streams.IAddS && c.Partner == streams.IAddS && c.ILP == streams.MaxILP {
			b.ReportMetric(c.Slowdown, "iadd-x-iadd-slowdown")
		}
	}
}

// BenchmarkFig2MixedPairs regenerates Figure 2(c): mixed integer and
// floating-point arithmetic pairs.
func BenchmarkFig2MixedPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figureData(b, 0, runner.NewCache(), "fig2c")
	}
}

// reportKernelShape attaches the figure's headline series as metrics: the
// per-mode execution-time factor relative to serial, and the SPR worker's
// miss reduction.
func reportKernelShape(b *testing.B, ms []experiments.KernelMetrics, label string) {
	b.Helper()
	serial, ok := experiments.SerialOf(ms, label)
	if !ok {
		b.Fatalf("no serial baseline for %s", label)
	}
	for _, m := range ms {
		if m.Label != label || m.Mode == kernels.Serial {
			continue
		}
		b.ReportMetric(experiments.Relative(m, serial), m.Mode.String()+"-vs-serial")
		if m.Mode == kernels.TLPPfetch && serial.L2ReadMissesWorker > 0 {
			red := 1 - float64(m.L2ReadMissesWorker)/float64(serial.L2ReadMissesWorker)
			b.ReportMetric(red, "pfetch-miss-reduction")
		}
	}
}

// BenchmarkFig3MM regenerates Figure 3: the Matrix Multiplication kernel
// across five execution modes and three scaled sizes.
func BenchmarkFig3MM(b *testing.B) {
	var ms []experiments.KernelMetrics
	for i := 0; i < b.N; i++ {
		ms = figureData(b, 0, runner.NewCache(), "fig3").MM
	}
	reportKernelShape(b, ms, "N=128")
}

// BenchmarkFig4LU regenerates Figure 4: the LU-decomposition kernel.
func BenchmarkFig4LU(b *testing.B) {
	var ms []experiments.KernelMetrics
	for i := 0; i < b.N; i++ {
		ms = figureData(b, 0, runner.NewCache(), "fig4").LU
	}
	reportKernelShape(b, ms, "N=128")
}

// BenchmarkFig5CG regenerates the CG panels of Figure 5.
func BenchmarkFig5CG(b *testing.B) {
	var ms []experiments.KernelMetrics
	for i := 0; i < b.N; i++ {
		ms = figureData(b, 0, runner.NewCache(), "fig5cg").CG
	}
	if len(ms) > 0 {
		reportKernelShape(b, ms, ms[0].Label)
	}
}

// BenchmarkFig5BT regenerates the BT panels of Figure 5 — the paper's one
// TLP speedup.
func BenchmarkFig5BT(b *testing.B) {
	var ms []experiments.KernelMetrics
	for i := 0; i < b.N; i++ {
		ms = figureData(b, 0, runner.NewCache(), "fig5bt").BT
	}
	if len(ms) > 0 {
		reportKernelShape(b, ms, ms[0].Label)
	}
}

// BenchmarkTable1Mix regenerates Table 1: the per-subunit dynamic
// instruction-mix breakdown of every kernel under serial, TLP and SPR
// execution.
func BenchmarkTable1Mix(b *testing.B) {
	var cols []experiments.Table1Column
	for i := 0; i < b.N; i++ {
		cols = figureData(b, 0, runner.NewCache(), "table1").Table1
	}
	for _, c := range cols {
		if c.Kernel == "MM" && c.Mode == "serial" {
			b.ReportMetric(c.Share[profile.RowLoad], "mm-serial-load-pct")
			b.ReportMetric(c.ALU0Share, "mm-serial-alu0-pct")
		}
	}
}

// BenchmarkAblationSync regenerates the §3.1 wait-primitive ablation.
func BenchmarkAblationSync(b *testing.B) {
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		rows = figureData(b, 0, runner.NewCache(), "sync").Sync
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Metrics.Cycles), r.Variant+"-cycles")
	}
}

// BenchmarkAblationSpan regenerates the §3.2 precomputation-span sweep.
func BenchmarkAblationSpan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figureData(b, 0, runner.NewCache(), "span")
	}
}

// BenchmarkAblationPartition regenerates the §5.3 partitioning contrast.
func BenchmarkAblationPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figureData(b, 0, runner.NewCache(), "partition")
	}
}

// BenchmarkFigRegenSpeedup regenerates Figure 2(a) twice — strictly
// serially (one worker, no cache) and with the default concurrent
// options — and reports the wall-clock speedup of the parallel+cached
// path. On an N-core machine the fan-out contributes up to ×N; the
// result cache contributes its hit savings even on one core.
func BenchmarkFigRegenSpeedup(b *testing.B) {
	run := func(workers int, cache *runner.Cache) time.Duration {
		start := time.Now()
		figureData(b, workers, cache, "fig2a")
		return time.Since(start)
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		serial += run(1, nil)
		parallel += run(0, runner.NewCache())
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup")
}

// BenchmarkSelectiveHalt regenerates the §3.1 selective-halting two-pass
// methodology on LU's phase barriers.
func BenchmarkSelectiveHalt(b *testing.B) {
	var r experiments.SelectiveHaltResult
	for i := 0; i < b.N; i++ {
		r = figureData(b, 0, runner.NewCache(), "selective").Selective
	}
	b.ReportMetric(float64(r.Baseline.Cycles), "all-spin-cycles")
	b.ReportMetric(float64(r.Planned.Cycles), "selective-halt-cycles")
}
