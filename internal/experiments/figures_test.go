package experiments_test

// The paper's figures regenerate only through the study engine over the
// committed studies/fig*.study.json specs, which runs every grid cell
// through this package's StreamCell and NamedKernelCell. These tests
// hold that path to the determinism contract of the concurrent runner —
// output byte-identical to one worker, with and without the result
// cache — and to the shapes the paper reports. They compare the
// formatted tables, the exact bytes a user sees, not just row structs.

import (
	"context"
	"strings"
	"testing"

	"smtexplore/internal/experiments"
	"smtexplore/internal/report"
	"smtexplore/internal/runner"
	"smtexplore/internal/streams"
	"smtexplore/internal/study"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
	"smtexplore/internal/study/synth"
	"smtexplore/studies"
)

// runSpec runs s in process on workers with the given cache (nil: no
// reuse), failing on any cell that did not complete.
func runSpec(ctx context.Context, s *spec.Spec, workers int, cache *runner.Cache) (*study.Result, error) {
	return studies.Run(ctx, s, &execute.Local{Cache: cache}, workers)
}

// figureSpec is the named committed figure sweeps, with edit applied to
// each sweep when non-nil.
func figureSpec(t *testing.T, edit func(*spec.Sweep), sweeps ...string) *spec.Spec {
	t.Helper()
	s, err := studies.Select(sweeps...)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		for i := range s.Sweeps {
			edit(&s.Sweeps[i])
		}
	}
	return s
}

// tables concatenates a run's tables in sweep order.
func tables(res *study.Result) string {
	var b strings.Builder
	for _, tb := range res.Tables {
		b.WriteString(tb.Text)
	}
	return b.String()
}

// figureText runs s and returns its tables.
func figureText(t *testing.T, s *spec.Spec, workers int, cache *runner.Cache) string {
	t.Helper()
	res, err := runSpec(context.Background(), s, workers, cache)
	if err != nil {
		t.Fatal(err)
	}
	return tables(res)
}

// figureData runs s and returns the paper-claim data its sweeps
// reconstruct.
func figureData(t *testing.T, s *spec.Spec) *report.Data {
	t.Helper()
	res, err := runSpec(context.Background(), s, 0, runner.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.CollectData(res.Plan, res.Results)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFig1ParallelByteIdenticalToSerial(t *testing.T) {
	s := figureSpec(t, nil, "fig1")
	serial := figureText(t, s, 1, nil)
	for _, c := range []struct {
		workers int
		cache   *runner.Cache
	}{{8, nil}, {8, runner.NewCache()}, {3, runner.NewCache()}} {
		if got := figureText(t, s, c.workers, c.cache); got != serial {
			t.Errorf("Fig1 with workers=%d cache=%v diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s",
				c.workers, c.cache != nil, serial, got)
		}
	}
}

func TestFig2aParallelByteIdenticalToSerial(t *testing.T) {
	s := figureSpec(t, nil, "fig2a")
	serial := figureText(t, s, 1, nil)
	cache := runner.NewCache()
	if got := figureText(t, s, 8, cache); got != serial {
		t.Errorf("Fig2a workers=8 diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
	// A second pass over a warm cache must serve every cell from memory
	// and still render the same bytes.
	before := cache.Stats()
	if got := figureText(t, s, 8, cache); got != serial {
		t.Error("warm-cache rerun diverged")
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("warm-cache rerun recomputed %d cells", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Error("warm-cache rerun recorded no hits")
	}
}

func TestKernelFigureParallelByteIdenticalToSerial(t *testing.T) {
	s := figureSpec(t, func(sw *spec.Sweep) { sw.Sizes = []int{32} }, "fig3", "fig4")
	serial := figureText(t, s, 1, nil)
	if got := figureText(t, s, 8, runner.NewCache()); got != serial {
		t.Errorf("kernel figures diverged from workers=1:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
}

func TestFig2SharedCacheReusesFig1Cells(t *testing.T) {
	// Fig1's duo cells reappear as Fig2 diagonal cells and its solos as
	// Fig2 baselines; a shared cache must serve them without recompute.
	ctx := context.Background()
	cache := runner.NewCache()
	matrix := figureSpec(t, func(sw *spec.Sweep) { sw.Table = spec.TableFig2 }, "fig1")
	if _, err := runSpec(ctx, matrix, 4, cache); err != nil {
		t.Fatal(err)
	}
	afterFig2 := cache.Stats()
	if _, err := runSpec(ctx, figureSpec(t, nil, "fig1"), 4, cache); err != nil {
		t.Fatal(err)
	}
	afterFig1 := cache.Stats()
	// Fig1 adds no simulations beyond what Fig2 already ran: every solo
	// and every (k,k) duo is a repeat.
	if afterFig1.Misses != afterFig2.Misses {
		t.Errorf("Fig1 after Fig2 recomputed %d cells, want 0 (full overlap)", afterFig1.Misses-afterFig2.Misses)
	}
	if afterFig1.Hits <= afterFig2.Hits {
		t.Error("Fig1 after Fig2 recorded no cache hits")
	}
}

func TestHarnessCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSpec(ctx, figureSpec(t, nil, "fig1"), 0, runner.NewCache()); err == nil {
		t.Error("the Figure 1 study ignored a cancelled context")
	}
	if _, err := runSpec(ctx, figureSpec(t, func(sw *spec.Sweep) { sw.Sizes = []int{32} }, "fig3"), 0, runner.NewCache()); err == nil {
		t.Error("the Figure 3 study ignored a cancelled context")
	}
	if _, err := runSpec(ctx, figureSpec(t, nil, "selective"), 0, runner.NewCache()); err == nil {
		t.Error("the selective-halting study ignored a cancelled context")
	}
}

func TestFig1ShapesMatchPaper(t *testing.T) {
	rows := figureData(t, figureSpec(t, func(sw *spec.Sweep) {
		sw.Streams = []string{"fadd", "iadd", "iload"}
	}, "fig1")).Fig1
	get := func(k streams.Kind, ilp streams.ILP, threads int) float64 {
		for _, r := range rows {
			if r.Stream == k && r.ILP == ilp && r.Threads == threads {
				return r.CPI
			}
		}
		t.Fatalf("missing row %v/%v/%d", k, ilp, threads)
		return 0
	}
	// fadd: best throughput in 1thr-maxILP; min-ILP CPI barely moves from
	// 1 to 2 threads (the Figure 1 discussion).
	if best := get(streams.FAddS, streams.MaxILP, 1); best > 1.4 {
		t.Errorf("fadd 1thr-maxILP CPI %.2f, want ≈1", best)
	}
	minSolo := get(streams.FAddS, streams.MinILP, 1)
	minDuo := get(streams.FAddS, streams.MinILP, 2)
	if minDuo > minSolo*1.15 {
		t.Errorf("fadd min-ILP CPI grew %.2f→%.2f on co-execution; paper has it flat", minSolo, minDuo)
	}
	// 2thr-medILP must not beat 1thr-maxILP throughput (W_fadd6 insight):
	// aggregate throughput 2/cpi(duo) ≤ 1/cpi(solo-max) with slack.
	duoMed := get(streams.FAddS, streams.MedILP, 2)
	soloMax := get(streams.FAddS, streams.MaxILP, 1)
	if 2/duoMed > 1.1*(1/soloMax) {
		t.Errorf("splitting the fadd window across threads (%.2f agg) beat 1thr-maxILP (%.2f)", 2/duoMed, 1/soloMax)
	}
	// iadd: ~100% slowdown on co-execution (front-end bound).
	iaddSolo := get(streams.IAddS, streams.MaxILP, 1)
	iaddDuo := get(streams.IAddS, streams.MaxILP, 2)
	if ratio := iaddDuo / iaddSolo; ratio < 1.7 || ratio > 2.4 {
		t.Errorf("iadd co-execution slowdown ratio %.2f, want ≈2 (serialisation)", ratio)
	}
	// iload: HT favours TLP — cumulative dual-thread throughput is
	// strictly better at min ILP (latency-bound chains overlap) and at
	// least as good at max ILP (both saturate the load port).
	minIlSolo := get(streams.ILoadS, streams.MinILP, 1)
	minIlDuo := get(streams.ILoadS, streams.MinILP, 2)
	if 2/minIlDuo <= 1.2*(1/minIlSolo) {
		t.Errorf("min-ILP iload cumulative throughput did not clearly improve with 2 threads (solo %.2f, duo %.2f)", minIlSolo, minIlDuo)
	}
	maxIlSolo := get(streams.ILoadS, streams.MaxILP, 1)
	maxIlDuo := get(streams.ILoadS, streams.MaxILP, 2)
	if 2/maxIlDuo < 0.9*(1/maxIlSolo) {
		t.Errorf("max-ILP iload cumulative throughput regressed with 2 threads (solo %.2f, duo %.2f)", maxIlSolo, maxIlDuo)
	}
}

// fig2Slowdown finds one cell of a Figure 2 panel.
func fig2Slowdown(t *testing.T, cells []experiments.Fig2Cell, s, p streams.Kind, ilp streams.ILP) float64 {
	t.Helper()
	for _, c := range cells {
		if c.Subject == s && c.Partner == p && c.ILP == ilp {
			return c.Slowdown
		}
	}
	t.Fatalf("missing cell %v×%v/%v", s, p, ilp)
	return 0
}

func TestFig2FPPanelShapes(t *testing.T) {
	cells := figureData(t, figureSpec(t, func(sw *spec.Sweep) {
		sw.Streams = []string{"fadd", "fdiv"}
		sw.Partners = []string{"fadd", "fmul", "fdiv"}
	}, "fig2a")).Fig2a
	// fdiv is slowed substantially by fdiv (the unpipelined divider) and
	// stays ILP-insensitive.
	dd := fig2Slowdown(t, cells, streams.FDivS, streams.FDivS, streams.MaxILP)
	if dd < 0.5 {
		t.Errorf("fdiv×fdiv slowdown = %.0f%%, want ≥50%% (paper: 120-140%%)", dd*100)
	}
	ddMin := fig2Slowdown(t, cells, streams.FDivS, streams.FDivS, streams.MinILP)
	if diff := dd - ddMin; diff > 0.7 || diff < -0.7 {
		t.Errorf("fdiv×fdiv slowdown varies with ILP (%.2f vs %.2f); paper has it insensitive", dd, ddMin)
	}
	// At min ILP, fadd co-exists with fmul essentially for free.
	if s := fig2Slowdown(t, cells, streams.FAddS, streams.FMulS, streams.MinILP); s > 0.25 {
		t.Errorf("min-ILP fadd×fmul slowdown %.0f%%, want ≈0", s*100)
	}
	// At max ILP, fadd suffers heavily from fmul (shared FP port).
	if s := fig2Slowdown(t, cells, streams.FAddS, streams.FMulS, streams.MaxILP); s < 0.4 {
		t.Errorf("max-ILP fadd×fmul slowdown %.0f%%, want large (paper: 180%%)", s*100)
	}
}

func TestFig2IntPanelShapes(t *testing.T) {
	cells := figureData(t, figureSpec(t, func(sw *spec.Sweep) {
		sw.Streams = []string{"iadd", "imul"}
	}, "fig2b")).Fig2b
	// iadd×iadd serialises on the front end; imul is almost unaffected
	// by a co-existing iadd.
	if s := fig2Slowdown(t, cells, streams.IAddS, streams.IAddS, streams.MaxILP); s < 0.7 {
		t.Errorf("iadd×iadd slowdown %.0f%%, want ≈100%%", s*100)
	}
	if s := fig2Slowdown(t, cells, streams.IMulS, streams.IAddS, streams.MaxILP); s > 0.35 {
		t.Errorf("imul slowed %.0f%% by iadd, want small", s*100)
	}
}

func TestFigureSweepsSmall(t *testing.T) {
	d := figureData(t, figureSpec(t, func(sw *spec.Sweep) { sw.Sizes = []int{32} }, "fig3", "fig4"))
	if len(d.MM) != 6 { // six MM modes including serial+pf
		t.Fatalf("fig3 rows = %d, want 6", len(d.MM))
	}
	if len(d.LU) != 3 {
		t.Fatalf("fig4 rows = %d, want 3", len(d.LU))
	}
	out := experiments.FormatKernelFigure("t", append(d.MM, d.LU...))
	if !strings.Contains(out, "serial+pf") || !strings.Contains(out, "tlp-pfetch") {
		t.Errorf("figure format incomplete:\n%s", out)
	}
}
