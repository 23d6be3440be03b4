package experiments

import (
	"fmt"
	"strings"

	"smtexplore/internal/kernels"
	"smtexplore/internal/profile"
	"smtexplore/internal/streams"
)

// FormatFig1 renders the Figure 1 rows grouped by stream, one line per
// TLP×ILP mode, in the paper's presentation order.
func FormatFig1(rows []Fig1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — average CPI per stream under TLP×ILP modes\n")
	fmt.Fprintf(&b, "%-10s %-8s %8s %8s\n", "stream", "ilp", "1thr", "2thr")
	type key struct {
		k   streams.Kind
		ilp streams.ILP
	}
	solo := map[key]float64{}
	duo := map[key]float64{}
	var order []key
	for _, r := range rows {
		kk := key{r.Stream, r.ILP}
		if _, seen := solo[kk]; !seen {
			if _, seen2 := duo[kk]; !seen2 {
				order = append(order, kk)
			}
		}
		if r.Threads == 1 {
			solo[kk] = r.CPI
		} else {
			duo[kk] = r.CPI
		}
	}
	for _, kk := range order {
		fmt.Fprintf(&b, "%-10s %-8s %8.2f %8.2f\n", kk.k, kk.ilp, solo[kk], duo[kk])
	}
	return b.String()
}

// FormatFig2 renders a Figure 2 panel as a slowdown matrix per ILP level:
// rows are the subject stream (the one whose slowdown is measured),
// columns the co-executing partner.
func FormatFig2(title string, cells []Fig2Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — co-execution slowdown factors (CoCPI/SoloCPI - 1)\n", title)
	byILP := map[streams.ILP][]Fig2Cell{}
	for _, c := range cells {
		byILP[c.ILP] = append(byILP[c.ILP], c)
	}
	for _, ilp := range streams.Levels() {
		group := byILP[ilp]
		if len(group) == 0 {
			continue
		}
		var subjects, partners []streams.Kind
		seenS, seenP := map[streams.Kind]bool{}, map[streams.Kind]bool{}
		for _, c := range group {
			if !seenS[c.Subject] {
				seenS[c.Subject] = true
				subjects = append(subjects, c.Subject)
			}
			if !seenP[c.Partner] {
				seenP[c.Partner] = true
				partners = append(partners, c.Partner)
			}
		}
		val := map[[2]streams.Kind]float64{}
		for _, c := range group {
			val[[2]streams.Kind{c.Subject, c.Partner}] = c.Slowdown
		}
		fmt.Fprintf(&b, "\n[%v] subject \\ partner\n%-10s", ilp, "")
		for _, p := range partners {
			fmt.Fprintf(&b, "%9s", p.String())
		}
		fmt.Fprintln(&b)
		for _, s := range subjects {
			fmt.Fprintf(&b, "%-10s", s.String())
			for _, p := range partners {
				fmt.Fprintf(&b, "%8.0f%%", val[[2]streams.Kind{s, p}]*100)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// SerialOf extracts the serial baseline with the given label from a
// metrics list.
func SerialOf(ms []KernelMetrics, label string) (KernelMetrics, bool) {
	for _, m := range ms {
		if m.Mode == kernels.Serial && m.Label == label {
			return m, true
		}
	}
	return KernelMetrics{}, false
}

// FormatKernelFigure renders a Figure 3/4/5 metrics list as the paper's
// four panels: execution time (with the factor relative to serial), L2
// misses under the paper's reporting convention, resource stall cycles,
// and µops retired.
func FormatKernelFigure(title string, ms []KernelMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %-16s %12s %8s %12s %12s %12s\n",
		"instance", "method", "cycles", "vs-ser", "l2-misses", "stalls", "uops")
	for _, m := range ms {
		rel := "-"
		if s, ok := SerialOf(ms, m.Label); ok && m.Mode != kernels.Serial {
			rel = fmt.Sprintf("%.2fx", Relative(m, s))
		}
		fmt.Fprintf(&b, "%-22s %-16s %12d %8s %12d %12d %12d\n",
			m.Label, m.Mode, m.Cycles, rel, m.L2MissesReported(),
			m.ResourceStallCycles, m.UopsRetired)
	}
	return b.String()
}

// FormatTable1 renders the Table 1 columns in the paper's layout: one
// block per kernel with serial/tlp/spr columns.
func FormatTable1(cols []Table1Column) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1 — processor subunit utilisation per instrumented thread")
	byKernel := map[string][]Table1Column{}
	var order []string
	for _, c := range cols {
		if _, seen := byKernel[c.Kernel]; !seen {
			order = append(order, c.Kernel)
		}
		byKernel[c.Kernel] = append(byKernel[c.Kernel], c)
	}
	for _, k := range order {
		group := byKernel[k]
		fmt.Fprintf(&b, "\n%s %-12s", k, "EX. UNIT")
		for _, c := range group {
			fmt.Fprintf(&b, "%10s", c.Mode)
		}
		fmt.Fprintln(&b)
		for _, row := range profile.Rows() {
			// Suppress all-zero rows (e.g. FP_MOVE for MM/LU).
			allZero := true
			for _, c := range group {
				if c.Share[row] > 0.005 {
					allZero = false
				}
			}
			if allZero {
				continue
			}
			fmt.Fprintf(&b, "   %-12s", row.String()+":")
			for _, c := range group {
				fmt.Fprintf(&b, "%9.2f%%", c.Share[row])
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "   %-12s", "Total instr:")
		for _, c := range group {
			fmt.Fprintf(&b, "%10d", c.TotalInstr)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Study   string
	Variant string
	Metrics KernelMetrics
}

// FormatAblation renders ablation rows.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-34s %12s %12s %12s %10s %10s\n",
		"variant", "cycles", "l2miss(w)", "uops", "spin-uops", "halts")
	for _, r := range rows {
		m := r.Metrics
		fmt.Fprintf(&b, "%-34s %12d %12d %12d %10d %10d\n",
			r.Variant, m.Cycles, m.L2ReadMissesWorker, m.UopsRetired, m.SpinUops, m.HaltTransitions)
	}
	return b.String()
}

// SelectiveHaltResult is the §3.1 selective-halting methodology applied
// to the LU coarse scheme, whose phase barriers have very different
// wait durations (the second thread idles through every diagonal-tile
// factorisation).
type SelectiveHaltResult struct {
	// Baseline is the all-spin(+pause) run the waits were profiled on:
	// the canonical cell.
	Baseline KernelMetrics
	// Planned is the rerun with halt embedded in the long-duration
	// barriers only: the halt=selective variant of the cell.
	Planned KernelMetrics
}

// FormatSelectiveHalt renders the study. The plan's threshold is 2% of
// the profiled runtime.
func FormatSelectiveHalt(r SelectiveHaltResult) string {
	out := fmt.Sprintf("Selective halting (§3.1) on LU tlp-coarse, threshold %d wait cycles\n", r.Baseline.Cycles/selectiveThresholdDivisor)
	out += fmt.Sprintf("%-28s %12s %12s %10s %10s\n", "pass", "cycles", "spin-uops", "halts", "waits")
	out += fmt.Sprintf("%-28s %12d %12d %10d %10d\n", "all spin+pause (profiling)",
		r.Baseline.Cycles, r.Baseline.SpinUops, r.Baseline.HaltTransitions, r.Planned.WaitBarriers)
	out += fmt.Sprintf("%-28s %12d %12d %10d %10d\n", "selective halt",
		r.Planned.Cycles, r.Planned.SpinUops, r.Planned.HaltTransitions, r.Planned.HaltBarriers)
	return out
}

// SensitivityPoint is one configuration of a µarchitecture sweep.
type SensitivityPoint struct {
	Param   string
	Value   string
	Metrics KernelMetrics
}

// FormatSensitivity renders a sweep with each point's cycle delta against
// the first (baseline) row.
func FormatSensitivity(title string, points []SensitivityPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-16s %-22s %12s %8s %12s\n", "param", "value", "cycles", "vs-base", "l2-misses")
	if len(points) == 0 {
		return b.String()
	}
	base := float64(points[0].Metrics.Cycles)
	for i, p := range points {
		rel := "-"
		if i > 0 {
			rel = fmt.Sprintf("%+.1f%%", (float64(p.Metrics.Cycles)/base-1)*100)
		}
		fmt.Fprintf(&b, "%-16s %-22s %12d %8s %12d\n",
			p.Param, p.Value, p.Metrics.Cycles, rel, p.Metrics.L2MissesReported())
	}
	return b.String()
}
