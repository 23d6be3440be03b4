// Package report encodes the paper's quantitative claims and evaluates
// the reproduction against them programmatically and renders a verdict
// table (the generated counterpart of EXPERIMENTS.md's summary). The
// data comes from running the committed studies through the study
// engine (synth.CollectData).
//
// A "pass" means the *shape* holds — the method ordering, the sign of a
// speedup, the direction and rough magnitude of a counter change — not
// that absolute numbers match the 2006 testbed (see DESIGN.md §2).
package report

import (
	"fmt"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// Data is the full measurement set the claims are evaluated against.
type Data struct {
	Fig1      []experiments.Fig1Row
	Fig2a     []experiments.Fig2Cell
	Fig2b     []experiments.Fig2Cell
	MM        []experiments.KernelMetrics
	LU        []experiments.KernelMetrics
	CG        []experiments.KernelMetrics
	BT        []experiments.KernelMetrics
	Table1    []experiments.Table1Column
	Sync      []experiments.AblationRow
	Span      []experiments.AblationRow
	Selective experiments.SelectiveHaltResult

	// MMLabel/LULabel name the size class used for the kernel claims.
	MMLabel, LULabel string
}

// Verdict is one evaluated claim.
type Verdict struct {
	ID       string
	Claim    string
	Paper    string
	Measured string
	Pass     bool
	// Skipped marks claims whose data was not collected.
	Skipped bool
}

// relOf finds the mode's execution-time factor vs serial in a metrics
// list at the given label.
func relOf(ms []experiments.KernelMetrics, label string, mode kernels.Mode) (float64, bool) {
	serial, ok := experiments.SerialOf(ms, label)
	if !ok {
		return 0, false
	}
	for _, m := range ms {
		if m.Label == label && m.Mode == mode {
			return experiments.Relative(m, serial), true
		}
	}
	return 0, false
}

// missReduction computes the pfetch worker's miss reduction vs serial.
func missReduction(ms []experiments.KernelMetrics, label string) (float64, bool) {
	serial, ok := experiments.SerialOf(ms, label)
	if !ok || serial.L2ReadMissesWorker == 0 {
		return 0, false
	}
	for _, m := range ms {
		if m.Label == label && m.Mode == kernels.TLPPfetch {
			return 1 - float64(m.L2ReadMissesWorker)/float64(serial.L2ReadMissesWorker), true
		}
	}
	return 0, false
}

func fig1CPI(rows []experiments.Fig1Row, k streams.Kind, ilp streams.ILP, thr int) (float64, bool) {
	for _, r := range rows {
		if r.Stream == k && r.ILP == ilp && r.Threads == thr {
			return r.CPI, true
		}
	}
	return 0, false
}

func fig2Slowdown(cells []experiments.Fig2Cell, s, p streams.Kind, ilp streams.ILP) (float64, bool) {
	for _, c := range cells {
		if c.Subject == s && c.Partner == p && c.ILP == ilp {
			return c.Slowdown, true
		}
	}
	return 0, false
}

func table1Col(cols []experiments.Table1Column, kernel, mode string) (experiments.Table1Column, bool) {
	for _, c := range cols {
		if c.Kernel == kernel && c.Mode == mode {
			return c, true
		}
	}
	return experiments.Table1Column{}, false
}

// Evaluate scores the paper's claims against the collected data.
func Evaluate(d *Data) []Verdict {
	var out []Verdict
	add := func(id, claim, paper string, eval func() (string, bool, bool)) {
		measured, pass, have := eval()
		out = append(out, Verdict{
			ID: id, Claim: claim, Paper: paper,
			Measured: measured, Pass: pass, Skipped: !have,
		})
	}

	// --- Figure 1 claims.
	add("F1-fadd-flat", "fadd min-ILP CPI unchanged from 1 to 2 threads", "flat (net speedup)",
		func() (string, bool, bool) {
			solo, ok1 := fig1CPI(d.Fig1, streams.FAddS, streams.MinILP, 1)
			duo, ok2 := fig1CPI(d.Fig1, streams.FAddS, streams.MinILP, 2)
			if !ok1 || !ok2 {
				return "", false, false
			}
			return fmt.Sprintf("%.2f → %.2f", solo, duo), duo <= solo*1.1, true
		})
	add("F1-fadd-window", "splitting a 6-wide fadd window over 2 threads beats nothing", "1thr-maxILP fastest",
		func() (string, bool, bool) {
			soloMax, ok1 := fig1CPI(d.Fig1, streams.FAddS, streams.MaxILP, 1)
			duoMed, ok2 := fig1CPI(d.Fig1, streams.FAddS, streams.MedILP, 2)
			if !ok1 || !ok2 {
				return "", false, false
			}
			return fmt.Sprintf("agg %.2f vs %.2f ops/cyc", 2/duoMed, 1/soloMax),
				2/duoMed <= 1.1*(1/soloMax), true
		})
	add("F1-iload-tlp", "iload is the stream where HT favours TLP", "cumulative dual throughput wins",
		func() (string, bool, bool) {
			solo, ok1 := fig1CPI(d.Fig1, streams.ILoadS, streams.MinILP, 1)
			duo, ok2 := fig1CPI(d.Fig1, streams.ILoadS, streams.MinILP, 2)
			if !ok1 || !ok2 {
				return "", false, false
			}
			return fmt.Sprintf("%.2f vs %.2f ops/cyc", 2/duo, 1/solo), 2/duo > 1.2*(1/solo), true
		})

	// --- Figure 2 claims.
	add("F2-iadd-serial", "iadd×iadd co-execution ≈ serial execution", "≈100%",
		func() (string, bool, bool) {
			s, ok := fig2Slowdown(d.Fig2b, streams.IAddS, streams.IAddS, streams.MaxILP)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.0f%%", s*100), s > 0.7, true
		})
	add("F2-fdiv-ilp", "fdiv×fdiv large and ILP-insensitive", "120–140% at all ILP",
		func() (string, bool, bool) {
			hi, ok1 := fig2Slowdown(d.Fig2a, streams.FDivS, streams.FDivS, streams.MaxILP)
			lo, ok2 := fig2Slowdown(d.Fig2a, streams.FDivS, streams.FDivS, streams.MinILP)
			if !ok1 || !ok2 {
				return "", false, false
			}
			return fmt.Sprintf("%.0f%% / %.0f%%", hi*100, lo*100),
				hi > 0.5 && lo > 0.5 && hi-lo < 0.7 && lo-hi < 0.7, true
		})
	add("F2-minilp-free", "min-ILP FP pairs co-exist perfectly (except fdiv×fdiv)", "≈0%",
		func() (string, bool, bool) {
			s, ok := fig2Slowdown(d.Fig2a, streams.FAddS, streams.FMulS, streams.MinILP)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.0f%%", s*100), s < 0.25, true
		})

	// --- Figure 3 (MM).
	add("F3-no-speedup", "no HT speedup for MM in any mode", "serial fastest",
		func() (string, bool, bool) {
			worst := 0.0
			serial, ok := experiments.SerialOf(d.MM, d.MMLabel)
			if !ok {
				return "", false, false
			}
			best := 1e9
			for _, m := range d.MM {
				if m.Label != d.MMLabel || m.Mode == kernels.Serial {
					continue
				}
				r := experiments.Relative(m, serial)
				if r > worst {
					worst = r
				}
				if r < best {
					best = r
				}
			}
			return fmt.Sprintf("dual modes %.2f–%.2fx vs serial", best, worst), best > 0.95, true
		})
	add("F3-miss-cut", "MM prefetcher removes the worker's L2 misses", "≈82%",
		func() (string, bool, bool) {
			red, ok := missReduction(d.MM, d.MMLabel)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.0f%%", red*100), red > 0.5, true
		})

	// --- Figure 4 (LU).
	add("F4-spr-bloat", "LU SPR slows 1.61–1.96x via prefetcher µop inflation", "≈2x µops, ≈2x time",
		func() (string, bool, bool) {
			r, ok := relOf(d.LU, d.LULabel, kernels.TLPPfetch)
			if !ok {
				return "", false, false
			}
			serial, _ := experiments.SerialOf(d.LU, d.LULabel)
			var pf experiments.KernelMetrics
			for _, m := range d.LU {
				if m.Label == d.LULabel && m.Mode == kernels.TLPPfetch {
					pf = m
				}
			}
			uopRatio := float64(pf.UopsRetired) / float64(serial.UopsRetired)
			return fmt.Sprintf("%.2fx time, %.2fx µops", r, uopRatio),
				r > 1.4 && uopRatio > 1.5, true
		})
	add("F4-miss-cut", "LU prefetcher removes the worker's L2 misses", "≈98%",
		func() (string, bool, bool) {
			red, ok := missReduction(d.LU, d.LULabel)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.0f%%", red*100), red > 0.5, true
		})

	// --- Figure 5 (CG, BT).
	add("F5-cg-order", "CG: serial beats all dual-threaded methods; SPR clearly slower", "coarse 1.03x, pfetch 1.82x, hybrid 1.91x",
		func() (string, bool, bool) {
			if len(d.CG) == 0 {
				return "", false, false
			}
			label := d.CG[0].Label
			co, ok1 := relOf(d.CG, label, kernels.TLPCoarse)
			pf, ok2 := relOf(d.CG, label, kernels.TLPPfetch)
			hy, ok3 := relOf(d.CG, label, kernels.TLPPfetchWork)
			if !ok1 || !ok2 || !ok3 {
				return "", false, false
			}
			return fmt.Sprintf("coarse %.2fx, pfetch %.2fx, hybrid %.2fx", co, pf, hy),
				co > 0.9 && pf > 1.1 && hy > 1.02, true
		})
	add("F5-bt-speedup", "BT tlp-coarse is the one TLP speedup", "≈6% faster",
		func() (string, bool, bool) {
			if len(d.BT) == 0 {
				return "", false, false
			}
			r, ok := relOf(d.BT, d.BT[0].Label, kernels.TLPCoarse)
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.2fx (%.0f%% faster)", r, (1-r)*100), r < 1.0, true
		})

	// --- Table 1.
	add("T1-mm-logical", "MM spends ≈25% of instructions in ALU0-only logical ops", "≈25% on ALU0",
		func() (string, bool, bool) {
			col, ok := table1Col(d.Table1, "MM", "serial")
			if !ok {
				return "", false, false
			}
			return fmt.Sprintf("%.1f%% on ALU0", col.ALU0Share),
				col.ALU0Share > 20 && col.ALU0Share < 35, true
		})
	add("T1-bt-half", "BT threads execute exactly half the serial instructions", "perfect partitioning",
		func() (string, bool, bool) {
			ser, ok1 := table1Col(d.Table1, "BT", "serial")
			tlp, ok2 := table1Col(d.Table1, "BT", "tlp")
			if !ok1 || !ok2 {
				return "", false, false
			}
			ratio := float64(tlp.TotalInstr) / float64(ser.TotalInstr)
			return fmt.Sprintf("tlp/serial instr = %.3f", ratio),
				ratio > 0.49 && ratio < 0.52, true
		})
	add("T1-cg-overhead", "CG threads execute more than half the serial count", "parallelisation overhead",
		func() (string, bool, bool) {
			ser, ok1 := table1Col(d.Table1, "CG", "serial")
			tlp, ok2 := table1Col(d.Table1, "CG", "tlp")
			if !ok1 || !ok2 {
				return "", false, false
			}
			ratio := float64(tlp.TotalInstr) / float64(ser.TotalInstr)
			return fmt.Sprintf("tlp/serial instr = %.3f", ratio), ratio > 0.52, true
		})

	// --- Extension (the paper's conclusion conjecture).
	add("E1-inline-pf", "prefetch embodied in the working thread beats helper-thread SPR", "conclusion: best scheme",
		func() (string, bool, bool) {
			inline, ok1 := relOf(d.MM, d.MMLabel, kernels.SerialPrefetch)
			helper, ok2 := relOf(d.MM, d.MMLabel, kernels.TLPPfetch)
			if !ok1 || !ok2 {
				return "", false, false
			}
			return fmt.Sprintf("serial+pf %.2fx vs tlp-pfetch %.2fx", inline, helper),
				inline < helper && inline < 1.05, true
		})

	// --- Ablations.
	add("A1-pause", "pause-augmented spin beats aggressive spinning", "§3.1",
		func() (string, bool, bool) {
			var raw, pause uint64
			for _, r := range d.Sync {
				switch r.Variant {
				case "spin":
					raw = r.Metrics.Cycles
				case "spin+pause":
					pause = r.Metrics.Cycles
				}
			}
			if raw == 0 || pause == 0 {
				return "", false, false
			}
			return fmt.Sprintf("%d vs %d cycles", raw, pause), pause < raw, true
		})
	add("A1-halt", "halting frees the partitioned resources and beats spinning", "§3.1",
		func() (string, bool, bool) {
			var halt, pause uint64
			for _, r := range d.Sync {
				switch r.Variant {
				case "halt":
					halt = r.Metrics.Cycles
				case "spin+pause":
					pause = r.Metrics.Cycles
				}
			}
			if halt == 0 || pause == 0 {
				return "", false, false
			}
			return fmt.Sprintf("%d vs %d cycles", pause, halt), halt < pause, true
		})
	add("A2-span", "oversized precomputation spans lose prefetched lines to eviction", "span ≤ 1/2 L2 (§3.2)",
		func() (string, bool, bool) {
			if len(d.Span) < 2 {
				return "", false, false
			}
			first := d.Span[0].Metrics.L2ReadMissesWorker
			last := d.Span[len(d.Span)-1].Metrics.L2ReadMissesWorker
			return fmt.Sprintf("worker misses %d → %d across sweep", first, last), last > first*4, true
		})
	add("A3-selective", "selective halting: fewer spin µops without regression", "§3.1 methodology",
		func() (string, bool, bool) {
			b, p := d.Selective.Baseline, d.Selective.Planned
			if b.Cycles == 0 {
				return "", false, false
			}
			return fmt.Sprintf("spin µops %d → %d, cycles %d → %d", b.SpinUops, p.SpinUops, b.Cycles, p.Cycles),
				p.SpinUops < b.SpinUops && float64(p.Cycles) < 1.1*float64(b.Cycles), true
		})

	return out
}

// Format renders the verdict table.
func Format(vs []Verdict) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-4s %-58s %s\n", "claim", "ok?", "paper", "measured")
	pass, total := 0, 0
	for _, v := range vs {
		status := "PASS"
		if v.Skipped {
			status = "skip"
		} else if !v.Pass {
			status = "FAIL"
		} else {
			pass++
		}
		if !v.Skipped {
			total++
		}
		fmt.Fprintf(&b, "%-14s %-4s %-58s %s\n", v.ID, status,
			truncate(v.Claim+" ["+v.Paper+"]", 58), v.Measured)
	}
	fmt.Fprintf(&b, "\n%d/%d claims reproduced\n", pass, total)
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
