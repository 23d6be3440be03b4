package experiments

import (
	"context"
	"strings"
	"testing"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

func TestMeasureCPISolo(t *testing.T) {
	cpi, err := MeasureCPI(StreamMachineConfig(),
		[]streams.Spec{{Kind: streams.FAddS, ILP: streams.MaxILP}}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if cpi[0] < 0.8 || cpi[0] > 1.4 {
		t.Errorf("max-ILP fadd CPI = %.2f, want ≈1 (FP port bound)", cpi[0])
	}
}

func TestMeasureCPIValidation(t *testing.T) {
	if _, err := MeasureCPI(StreamMachineConfig(), nil, 1000); err == nil {
		t.Error("empty spec list accepted")
	}
	three := []streams.Spec{{Kind: streams.FAddS, ILP: 1}, {Kind: streams.FAddS, ILP: 1}, {Kind: streams.FAddS, ILP: 1}}
	if _, err := MeasureCPI(StreamMachineConfig(), three, 1000); err == nil {
		t.Error("three streams accepted")
	}
}

func TestRunKernelAndFormat(t *testing.T) {
	k, err := mm.New(mm.DefaultConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	var ms []KernelMetrics
	for _, mode := range []kernels.Mode{kernels.Serial, kernels.TLPCoarse} {
		m, err := RunKernel(k, mode, KernelMachineConfig(), "N=32")
		if err != nil {
			t.Fatal(err)
		}
		if m.Cycles == 0 || m.UopsRetired == 0 {
			t.Fatalf("%v: empty metrics %+v", mode, m)
		}
		ms = append(ms, m)
	}
	if _, ok := SerialOf(ms, "N=32"); !ok {
		t.Fatal("SerialOf missed the baseline")
	}
	out := FormatKernelFigure("Figure 3 — MM", ms)
	for _, want := range []string{"serial", "tlp-coarse", "N=32", "vs-ser"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted figure missing %q:\n%s", want, out)
		}
	}
}

func TestL2MissesReportedConvention(t *testing.T) {
	m := KernelMetrics{Mode: kernels.TLPPfetch, L2ReadMissesWorker: 10, L2ReadMissesBoth: 100}
	if m.L2MissesReported() != 10 {
		t.Error("pfetch must report worker misses only")
	}
	m.Mode = kernels.TLPCoarse
	if m.L2MissesReported() != 100 {
		t.Error("tlp must report the sum of both threads")
	}
}

func TestFormatFig1AndFig2(t *testing.T) {
	rows := []Fig1Row{
		{Stream: streams.FAddS, ILP: streams.MinILP, Threads: 1, CPI: 5},
		{Stream: streams.FAddS, ILP: streams.MinILP, Threads: 2, CPI: 5.1},
	}
	out := FormatFig1(rows)
	if !strings.Contains(out, "fadd") || !strings.Contains(out, "5.00") {
		t.Errorf("fig1 format wrong:\n%s", out)
	}
	cells := []Fig2Cell{{Subject: streams.FAddS, Partner: streams.FMulS, ILP: streams.MaxILP, SoloCPI: 1, CoCPI: 2, Slowdown: 1}}
	out2 := FormatFig2("Figure 2(a)", cells)
	if !strings.Contains(out2, "100%") {
		t.Errorf("fig2 format wrong:\n%s", out2)
	}
}

func TestSelectiveHaltLU(t *testing.T) {
	r, err := SelectiveHaltLU(context.Background(), DefaultOptions(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WaitProfile) == 0 {
		t.Fatal("profiling pass recorded no per-cell waits")
	}
	if r.Planned.HaltTransitions == 0 && len(r.HaltCells) > 0 {
		t.Error("plan selected halt cells but the rerun never halted")
	}
	// Selective halting must not significantly regress the spin baseline
	// (the paper adopts it because the halted waits come out ahead).
	if float64(r.Planned.Cycles) > 1.15*float64(r.Baseline.Cycles) {
		t.Errorf("selective halt %d cycles vs baseline %d: regression", r.Planned.Cycles, r.Baseline.Cycles)
	}
	out := FormatSelectiveHalt(r)
	if !strings.Contains(out, "selective halt") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestSensitivitySweep(t *testing.T) {
	variants := []Variant{
		DefaultVariants()[0], // baseline
		{"alloc-width", "2", func(c *smt.Config) { c.AllocWidth = 2; c.RetireWidth = 2 }},
	}
	points, err := Sensitivity(context.Background(), DefaultOptions(), func() (Builder, error) {
		return mm.New(mm.DefaultConfig(32))
	}, kernels.TLPCoarse, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// Narrowing the front end must slow a front-end-bound kernel.
	if points[1].Metrics.Cycles <= points[0].Metrics.Cycles {
		t.Errorf("alloc-width 2 (%d cycles) not slower than baseline (%d)",
			points[1].Metrics.Cycles, points[0].Metrics.Cycles)
	}
	out := FormatSensitivity("t", points)
	if !strings.Contains(out, "alloc-width") || !strings.Contains(out, "vs-base") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestSensitivityRejectsInvalidVariant(t *testing.T) {
	_, err := Sensitivity(context.Background(), DefaultOptions(), func() (Builder, error) {
		return mm.New(mm.DefaultConfig(32))
	}, kernels.Serial, []Variant{{"bad", "rob=0", func(c *smt.Config) { c.ROB = 0 }}})
	if err == nil {
		t.Fatal("invalid variant accepted")
	}
}
