package experiments

import (
	"strings"
	"testing"

	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/mm"
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
	opt := DefaultOptions()
	base, err := NamedKernelCell(opt, "lu", 64, kernels.TLPCoarse)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := VariantKernelCell(opt, "lu", 64, kernels.TLPCoarse, "halt=selective")
	if err != nil {
		t.Fatal(err)
	}
	if planned.WaitBarriers == 0 {
		t.Fatal("profiling pass recorded no per-cell waits")
	}
	if planned.HaltTransitions == 0 && planned.HaltBarriers > 0 {
		t.Error("plan selected halt cells but the rerun never halted")
	}
	if base.WaitBarriers != 0 || base.HaltBarriers != 0 {
		t.Error("the canonical cell carries selective-halting counts")
	}
	// Selective halting must not significantly regress the spin baseline
	// (the paper adopts it because the halted waits come out ahead).
	if float64(planned.Cycles) > 1.15*float64(base.Cycles) {
		t.Errorf("selective halt %d cycles vs baseline %d: regression", planned.Cycles, base.Cycles)
	}
	out := FormatSelectiveHalt(SelectiveHaltResult{Baseline: base, Planned: planned})
	if !strings.Contains(out, "selective halt") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestSensitivitySweep(t *testing.T) {
	var points []SensitivityPoint
	for _, name := range []string{"baseline=scaled kernel machine", "alloc-width=2"} {
		v, ok := LookupVariant(name)
		if !ok {
			t.Fatalf("no variant %q", name)
		}
		met, err := VariantKernelCell(DefaultOptions(), "mm", 32, kernels.TLPCoarse, name)
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, SensitivityPoint{Param: v.Param, Value: v.Value, Metrics: met})
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
	for _, c := range []struct {
		kernel, variant string
	}{
		{"mm", "rob=0"},          // not in the table
		{"lu", "wait=halt"},      // an mm override
		{"mm", "halt=selective"}, // lu only
	} {
		if _, err := VariantKernelCell(DefaultOptions(), c.kernel, 32, kernels.Serial, c.variant); err == nil {
			t.Errorf("%s under %q accepted", c.kernel, c.variant)
		}
	}
}

// TestNoOpVariantsShareTheCanonicalKey pins the dedupe the ablation and
// sensitivity tables rely on: a variant that overrides nothing keys as
// the canonical cell, one that does keys apart, and the selective
// variant keys apart from its own baseline.
func TestNoOpVariantsShareTheCanonicalKey(t *testing.T) {
	key := func(kernel string, mode kernels.Mode, variant string) string {
		k, err := VariantCellKey(kernel, 64, mode, variant)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	pfetch := key("mm", kernels.TLPPfetch, "")
	for _, v := range []string{"wait=spin+pause", "span=2 steps (8 KB)", "partitioning=static (halved per thread)", "baseline=scaled kernel machine"} {
		if key("mm", kernels.TLPPfetch, v) != pfetch {
			t.Errorf("no-op variant %q has its own key", v)
		}
	}
	for _, v := range []string{"wait=halt", "span=4 steps (16 KB)", "partitioning=fully shared", "rob=64"} {
		if key("mm", kernels.TLPPfetch, v) == pfetch {
			t.Errorf("variant %q shares the canonical key", v)
		}
	}
	if key("lu", kernels.TLPCoarse, "halt=selective") == key("lu", kernels.TLPCoarse, "") {
		t.Error("the selective variant shares its baseline's key")
	}
}
