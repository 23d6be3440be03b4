package report

import (
	"strings"
	"testing"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// syntheticData builds a Data set with known values so Evaluate's claim
// logic is tested without minutes of simulation.
func syntheticData() *Data {
	mk := func(label string, mode kernels.Mode, cycles, missW, uops uint64) experiments.KernelMetrics {
		return experiments.KernelMetrics{
			Kernel: "x", Mode: mode, Label: label,
			Cycles: cycles, L2ReadMissesWorker: missW, L2ReadMissesBoth: missW * 2,
			UopsRetired: uops,
		}
	}
	return &Data{
		Fig1: []experiments.Fig1Row{
			{Stream: streams.FAddS, ILP: streams.MinILP, Threads: 1, CPI: 5},
			{Stream: streams.FAddS, ILP: streams.MinILP, Threads: 2, CPI: 5},
			{Stream: streams.FAddS, ILP: streams.MaxILP, Threads: 1, CPI: 1},
			{Stream: streams.FAddS, ILP: streams.MedILP, Threads: 2, CPI: 2},
			{Stream: streams.ILoadS, ILP: streams.MinILP, Threads: 1, CPI: 2.5},
			{Stream: streams.ILoadS, ILP: streams.MinILP, Threads: 2, CPI: 2.6},
		},
		Fig2a: []experiments.Fig2Cell{
			{Subject: streams.FDivS, Partner: streams.FDivS, ILP: streams.MaxILP, Slowdown: 1.0},
			{Subject: streams.FDivS, Partner: streams.FDivS, ILP: streams.MinILP, Slowdown: 1.0},
			{Subject: streams.FAddS, Partner: streams.FMulS, ILP: streams.MinILP, Slowdown: 0.05},
		},
		Fig2b: []experiments.Fig2Cell{
			{Subject: streams.IAddS, Partner: streams.IAddS, ILP: streams.MaxILP, Slowdown: 1.0},
		},
		MM: []experiments.KernelMetrics{
			mk("N=128", kernels.Serial, 1000, 1000, 100),
			mk("N=128", kernels.TLPCoarse, 1100, 900, 100),
			mk("N=128", kernels.TLPPfetch, 1180, 150, 120),
			mk("N=128", kernels.SerialPrefetch, 990, 200, 102),
		},
		LU: []experiments.KernelMetrics{
			mk("N=128", kernels.Serial, 1000, 500, 100),
			mk("N=128", kernels.TLPPfetch, 2000, 10, 190),
		},
		CG: []experiments.KernelMetrics{
			mk("cg", kernels.Serial, 1000, 400, 100),
			mk("cg", kernels.TLPCoarse, 1030, 300, 110),
			mk("cg", kernels.TLPPfetch, 1800, 100, 115),
			mk("cg", kernels.TLPPfetchWork, 1900, 500, 118),
		},
		BT: []experiments.KernelMetrics{
			mk("bt", kernels.Serial, 1000, 900, 100),
			mk("bt", kernels.TLPCoarse, 940, 850, 100),
		},
		Table1: []experiments.Table1Column{
			{Kernel: "MM", Mode: "serial", ALU0Share: 25.2, TotalInstr: 1000},
			{Kernel: "BT", Mode: "serial", TotalInstr: 1000},
			{Kernel: "BT", Mode: "tlp", TotalInstr: 500},
			{Kernel: "CG", Mode: "serial", TotalInstr: 1000},
			{Kernel: "CG", Mode: "tlp", TotalInstr: 560},
		},
		Sync: []experiments.AblationRow{
			{Variant: "spin", Metrics: experiments.KernelMetrics{Cycles: 1500}},
			{Variant: "spin+pause", Metrics: experiments.KernelMetrics{Cycles: 950}},
			{Variant: "halt", Metrics: experiments.KernelMetrics{Cycles: 830}},
		},
		Span: []experiments.AblationRow{
			{Variant: "small", Metrics: experiments.KernelMetrics{L2ReadMissesWorker: 10}},
			{Variant: "large", Metrics: experiments.KernelMetrics{L2ReadMissesWorker: 800}},
		},
		Selective: experiments.SelectiveHaltResult{
			Baseline: experiments.KernelMetrics{Cycles: 1000, SpinUops: 20000},
			Planned:  experiments.KernelMetrics{Cycles: 990, SpinUops: 2000},
		},
		MMLabel: "N=128",
		LULabel: "N=128",
	}
}

func TestEvaluateAllPassOnGoodData(t *testing.T) {
	vs := Evaluate(syntheticData())
	if len(vs) < 15 {
		t.Fatalf("only %d verdicts", len(vs))
	}
	for _, v := range vs {
		if v.Skipped {
			t.Errorf("%s skipped on complete data", v.ID)
		}
		if !v.Pass {
			t.Errorf("%s failed on shape-conforming data: %s", v.ID, v.Measured)
		}
	}
	out := Format(vs)
	if !strings.Contains(out, "claims reproduced") {
		t.Error("format missing summary line")
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("format shows failures:\n%s", out)
	}
}

func TestEvaluateDetectsShapeBreaks(t *testing.T) {
	d := syntheticData()
	// Break the BT speedup.
	d.BT[1].Cycles = 1200
	// Break the LU µop inflation.
	d.LU[1].UopsRetired = 100
	vs := Evaluate(d)
	failed := map[string]bool{}
	for _, v := range vs {
		if !v.Pass && !v.Skipped {
			failed[v.ID] = true
		}
	}
	if !failed["F5-bt-speedup"] {
		t.Error("broken BT speedup not detected")
	}
	if !failed["F4-spr-bloat"] {
		t.Error("broken LU µop inflation not detected")
	}
}

func TestEvaluateSkipsMissingData(t *testing.T) {
	d := syntheticData()
	d.Fig1 = nil
	d.Sync = nil
	vs := Evaluate(d)
	skipped := 0
	for _, v := range vs {
		if v.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("missing data not reported as skipped")
	}
	out := Format(vs)
	if !strings.Contains(out, "skip") {
		t.Error("format does not show skips")
	}
}
