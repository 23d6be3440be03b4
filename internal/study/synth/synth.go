// Package synth turns a compiled plan plus its cell results into the
// study's deliverables: result tables rendered by the experiments
// formatters (the figure CLIs print these tables, so a sweep that
// mirrors a paper grid emits their exact text), and a self-contained
// Markdown report with the plan accounting, deltas vs. the paper's
// published numbers, and a limitations/verification appendix listing
// every skipped or failed cell.
package synth

import (
	"fmt"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/report"
	"smtexplore/internal/service"
	"smtexplore/internal/study/budget"
	"smtexplore/internal/study/compile"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
)

// Table is one synthesized result table.
type Table struct {
	// Name is the sweep name (and the table's file stem).
	Name string
	// Text is the rendered table. For sweeps that mirror a figure CLI
	// grid this is byte-identical to that CLI's stdout, including the
	// trailing blank line the streams/kernels commands print.
	Text string
}

// done reports whether a plan-aligned result slot holds a completed
// cell (skipped cells are zero-valued; failed ones carry their state).
func done(results []service.CellResult, idx int) (service.CellResult, bool) {
	if idx < 0 || idx >= len(results) {
		return service.CellResult{}, false
	}
	r := results[idx]
	return r, r.State == service.CellDone
}

// Tables renders one table per sweep from the plan-aligned results.
// Missing values (skipped or failed cells) render as zeros or absent
// rows; the report's appendix is where they are called out.
func Tables(p *compile.Plan, results []service.CellResult) ([]Table, error) {
	out := make([]Table, 0, len(p.Tables))
	for _, t := range p.Tables {
		var (
			text string
			err  error
		)
		switch t.Sweep.EffectiveTable() {
		case spec.TableFig1:
			text, err = fig1Table(t, results)
		case spec.TableFig2:
			text, err = fig2Table(t, results)
		case spec.TableKernel:
			text, err = kernelTable(t, results)
		case spec.TableText:
			text = textTable(t, results)
		default:
			err = fmt.Errorf("unknown table style %q", t.Sweep.EffectiveTable())
		}
		if err != nil {
			return nil, fmt.Errorf("synth: sweep %q: %w", t.Sweep.Name, err)
		}
		out = append(out, Table{Name: t.Sweep.Name, Text: text})
	}
	return out, nil
}

// fig1Rows reconstructs the Figure 1 row list in sweep enumeration
// order (duo CPI is the two contexts' average, as the harness reports).
func fig1Rows(t compile.TableNode, results []service.CellResult) ([]experiments.Fig1Row, error) {
	sw := t.Sweep
	var rows []experiments.Fig1Row
	for _, k := range sw.Streams {
		kind, err := spec.ParseKind(k)
		if err != nil {
			return nil, err
		}
		for _, ilpName := range sw.EffectiveILP() {
			ilp, err := spec.ParseILP(ilpName)
			if err != nil {
				return nil, err
			}
			for _, n := range sw.EffectiveThreads() {
				row := experiments.Fig1Row{Stream: kind, ILP: ilp, Threads: n}
				idx := t.Cells[fmt.Sprintf("%s|%s|%d", k, spec.ILPName(ilp), n)]
				if r, ok := done(results, idx); ok && len(r.CPI) == n && n > 0 {
					sum := 0.0
					for _, v := range r.CPI {
						sum += v
					}
					row.CPI = sum / float64(n)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func fig1Table(t compile.TableNode, results []service.CellResult) (string, error) {
	rows, err := fig1Rows(t, results)
	if err != nil {
		return "", err
	}
	return experiments.FormatFig1(rows) + "\n", nil
}

// fig2Cells reconstructs the pairwise slowdown cells in the Figure 2
// harness's enumeration order.
func fig2Cells(t compile.TableNode, results []service.CellResult) ([]experiments.Fig2Cell, error) {
	sw := t.Sweep
	var cells []experiments.Fig2Cell
	for _, ilpName := range sw.EffectiveILP() {
		ilp, err := spec.ParseILP(ilpName)
		if err != nil {
			return nil, err
		}
		short := spec.ILPName(ilp)
		for _, s := range sw.Streams {
			subj, err := spec.ParseKind(s)
			if err != nil {
				return nil, err
			}
			for _, p := range sw.EffectivePartners() {
				part, err := spec.ParseKind(p)
				if err != nil {
					return nil, err
				}
				c := experiments.Fig2Cell{Subject: subj, Partner: part, ILP: ilp}
				if r, ok := done(results, t.Cells[fmt.Sprintf("solo|%s|%s", s, short)]); ok && len(r.CPI) > 0 {
					c.SoloCPI = r.CPI[0]
				}
				if r, ok := done(results, t.Cells[fmt.Sprintf("duo|%s|%s|%s", s, p, short)]); ok && len(r.CPI) > 0 {
					c.CoCPI = r.CPI[0]
				}
				if c.SoloCPI > 0 {
					c.Slowdown = c.CoCPI/c.SoloCPI - 1
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

func fig2Table(t compile.TableNode, results []service.CellResult) (string, error) {
	cells, err := fig2Cells(t, results)
	if err != nil {
		return "", err
	}
	title := t.Sweep.Title
	if title == "" {
		title = "Co-execution matrix — " + t.Sweep.Name
	}
	return experiments.FormatFig2(title, cells) + "\n", nil
}

// kernelMetrics reconstructs the kernel sweep's metric rows (sizes
// outer, modes inner). Rows whose cell did not complete are absent —
// a zero-valued row would corrupt the vs-serial column.
func kernelMetrics(t compile.TableNode, results []service.CellResult) ([]experiments.KernelMetrics, error) {
	sw := t.Sweep
	kernel := sw.Kernels[0]
	sizes := sw.Sizes
	if len(sizes) == 0 {
		sizes = []int{0}
	}
	var ms []experiments.KernelMetrics
	for _, size := range sizes {
		modeNames := sw.Modes
		if len(modeNames) == 0 {
			modes, err := experiments.KernelModes(kernel, size)
			if err != nil {
				return nil, err
			}
			modeNames = make([]string, len(modes))
			for i, m := range modes {
				modeNames[i] = m.String()
			}
		}
		for _, modeName := range modeNames {
			mode, err := spec.ParseMode(modeName)
			if err != nil {
				return nil, err
			}
			if r, ok := done(results, t.Cells[fmt.Sprintf("%d|%s", size, mode)]); ok && r.Kernel != nil {
				ms = append(ms, *r.Kernel)
			}
		}
	}
	return ms, nil
}

func kernelTable(t compile.TableNode, results []service.CellResult) (string, error) {
	ms, err := kernelMetrics(t, results)
	if err != nil {
		return "", err
	}
	title := t.Sweep.Title
	if title == "" {
		title = "Kernel sweep — " + t.Sweep.Name
	}
	return experiments.FormatKernelFigure(title, ms) + "\n", nil
}

// textTable passes harness output through verbatim, in sweep order.
func textTable(t compile.TableNode, results []service.CellResult) string {
	var b strings.Builder
	for _, h := range t.Sweep.Harnesses {
		if r, ok := done(results, t.Cells["text|"+h]); ok {
			b.WriteString(r.Text)
		}
	}
	return b.String()
}

// CollectData assembles whatever paper-claim inputs the study's sweeps
// reconstructed, for report.Evaluate. Claims whose inputs this study
// did not sweep evaluate as skipped — partial studies get partial
// verdict tables, never false failures.
func CollectData(p *compile.Plan, results []service.CellResult) (*report.Data, error) {
	d := &report.Data{}
	for _, t := range p.Tables {
		switch t.Sweep.EffectiveTable() {
		case spec.TableFig1:
			rows, err := fig1Rows(t, results)
			if err != nil {
				return nil, err
			}
			d.Fig1 = append(d.Fig1, rows...)
		case spec.TableFig2:
			cells, err := fig2Cells(t, results)
			if err != nil {
				return nil, err
			}
			// Route by stream class: an all-FP matrix feeds the Figure
			// 2(a) claims, an all-integer one 2(b).
			fp, in := classify(t.Sweep)
			switch {
			case fp && !in:
				d.Fig2a = append(d.Fig2a, cells...)
			case in && !fp:
				d.Fig2b = append(d.Fig2b, cells...)
			}
		case spec.TableKernel:
			ms, err := kernelMetrics(t, results)
			if err != nil {
				return nil, err
			}
			sizes := t.Sweep.Sizes
			label := ""
			if len(sizes) > 0 {
				label = fmt.Sprintf("N=%d", sizes[len(sizes)-1])
			}
			switch t.Sweep.Kernels[0] {
			case "mm":
				d.MM = append(d.MM, ms...)
				d.MMLabel = label
			case "lu":
				d.LU = append(d.LU, ms...)
				d.LULabel = label
			case "cg":
				d.CG = append(d.CG, ms...)
			case "bt":
				d.BT = append(d.BT, ms...)
			}
		}
	}
	return d, nil
}

// classify reports whether every swept stream is FP and whether every
// one is integer.
func classify(sw spec.Sweep) (allFP, allInt bool) {
	allFP, allInt = true, true
	check := func(names []string) {
		for _, n := range names {
			isFP := strings.HasPrefix(n, "f")
			allFP = allFP && isFP
			allInt = allInt && !isFP
		}
	}
	check(sw.Streams)
	check(sw.Partners)
	return allFP, allInt
}

// Input is everything the report needs.
type Input struct {
	Spec     *spec.Spec
	Plan     *compile.Plan
	Decision budget.Decision
	Outcome  *execute.Outcome
	// Results is plan-aligned (skipped cells zero-valued).
	Results []service.CellResult
	Tables  []Table
}

// Report renders the self-contained Markdown report. It is
// deliberately timestamp-free: the same study over the same store
// produces byte-identical reports, which is what makes report diffs
// reviewable.
func Report(in Input) string {
	var b strings.Builder
	s := in.Spec
	title := s.Title
	if title == "" {
		title = s.Name
	}
	fmt.Fprintf(&b, "# Study report — %s\n\n", title)
	if s.Description != "" {
		fmt.Fprintf(&b, "%s\n\n", strings.TrimSpace(s.Description))
	}
	fmt.Fprintf(&b, "- study: `%s` (spec sha256 `%s`)\n", s.Name, s.Hash()[:12])
	fmt.Fprintf(&b, "- backend: %s\n", in.Outcome.Backend)
	if s.Priority != 0 {
		fmt.Fprintf(&b, "- priority: %d\n", s.Priority)
	}
	if s.Deadline != "" {
		fmt.Fprintf(&b, "- deadline: %s\n", s.Deadline)
	}
	switch {
	case s.Budget.Cycles > 0 && s.Budget.Cells > 0:
		fmt.Fprintf(&b, "- budget: %d cycles, %d cold cells\n", s.Budget.Cycles, s.Budget.Cells)
	case s.Budget.Cycles > 0:
		fmt.Fprintf(&b, "- budget: %d cycles\n", s.Budget.Cycles)
	case s.Budget.Cells > 0:
		fmt.Fprintf(&b, "- budget: %d cold cells\n", s.Budget.Cells)
	default:
		fmt.Fprintf(&b, "- budget: unlimited\n")
	}

	fmt.Fprintf(&b, "\n## Plan\n\n")
	fmt.Fprintf(&b, "| sweep | kind | table | cells |\n|---|---|---|---|\n")
	for _, t := range in.Plan.Tables {
		fmt.Fprintf(&b, "| %s | %s | %s | %d |\n",
			t.Sweep.Name, t.Sweep.Kind, t.Sweep.EffectiveTable(), len(t.Cells))
	}
	fmt.Fprintf(&b, "\n%d grid points compiled to %d unique cells (%d deduplicated); %d warm in the store, %d cold admitted (~%d estimated cycles), %d skipped by the budget.\n",
		in.Plan.Requested, len(in.Plan.Cells), in.Plan.Requested-len(in.Plan.Cells),
		len(in.Decision.Warm), in.Decision.ColdCells, in.Decision.EstimatedCycles,
		len(in.Decision.Skipped))

	fmt.Fprintf(&b, "\n## Results\n")
	for _, t := range in.Tables {
		fmt.Fprintf(&b, "\n### %s\n\n```text\n%s```\n", t.Name, ensureNL(t.Text))
	}

	if s.Claims {
		fmt.Fprintf(&b, "\n## Deltas vs. the paper\n\n")
		d, err := CollectData(in.Plan, in.Results)
		if err != nil {
			fmt.Fprintf(&b, "claim evaluation unavailable: %v\n", err)
		} else {
			fmt.Fprintf(&b, "```text\n%s```\n", ensureNL(report.Format(report.Evaluate(d))))
		}
	}

	fmt.Fprintf(&b, "\n## Limitations and verification\n\n")
	if len(in.Decision.Skipped) == 0 {
		fmt.Fprintf(&b, "- skipped cells: none — the budget admitted the whole plan.\n")
	} else {
		fmt.Fprintf(&b, "- skipped cells (%d):\n", len(in.Decision.Skipped))
		for _, sk := range in.Decision.Skipped {
			fmt.Fprintf(&b, "  - `%s`: %s\n", sk.Label, sk.Reason)
		}
	}
	failed := 0
	for _, r := range in.Results {
		if r.State == service.CellFailed || r.State == service.CellCancelled {
			failed++
		}
	}
	if failed == 0 {
		fmt.Fprintf(&b, "- failed cells: none.\n")
	} else {
		fmt.Fprintf(&b, "- failed cells (%d):\n", failed)
		for _, r := range in.Results {
			if r.State == service.CellFailed || r.State == service.CellCancelled {
				fmt.Fprintf(&b, "  - `%s` (%s): %s\n", r.Label, r.State, firstLine(r.Error))
			}
		}
	}
	if in.Outcome.Simulated >= 0 {
		fmt.Fprintf(&b, "- cold simulations this run: %d (warm cells were served from the store).\n", in.Outcome.Simulated)
	} else {
		fmt.Fprintf(&b, "- cold simulations this run: unknown (no store visibility from this backend).\n")
	}
	for _, n := range in.Outcome.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	fmt.Fprintf(&b, "- budget costs are admission estimates (stream cells are exact windows; kernel/harness cells use coarse per-cell guesses), not a cycle meter.\n")
	fmt.Fprintf(&b, "- tables whose sweep mirrors a paper grid are byte-identical to the corresponding CLI, which runs the committed studies/fig*.study.json specs through this engine; the CLIs' golden files pin Figures 1-5 and Table 1.\n")
	return b.String()
}

func ensureNL(s string) string {
	if s == "" || strings.HasSuffix(s, "\n") {
		return s
	}
	return s + "\n"
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
