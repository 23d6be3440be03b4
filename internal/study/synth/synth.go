// Package synth turns a compiled plan plus its cell results into the
// study's deliverables: result tables rendered by the experiments
// formatters (cmd/paper prints these tables, so a sweep that mirrors
// a paper grid emits their exact text), and a self-contained
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
	// Text is the rendered table. For sweeps that mirror a paper grid
	// this is byte-identical to that grid's golden in studies/testdata,
	// including the trailing blank line of the figure tables.
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
		case spec.TableAblation:
			var rows []experiments.AblationRow
			if rows, err = ablationRows(t, results); err == nil {
				text = experiments.FormatAblation(title(t.Sweep, "Ablation — "+t.Sweep.Name), rows) + "\n"
			}
		case spec.TableSelective:
			var r experiments.SelectiveHaltResult
			if r, err = selectiveResult(t, results); err == nil {
				text = experiments.FormatSelectiveHalt(r) + "\n"
			}
		case spec.TableSensitivity:
			text, err = sensitivityTable(t, results)
		case spec.TableTable1:
			var cols []experiments.Table1Column
			if cols, err = table1Columns(t, results); err == nil {
				text = experiments.FormatTable1(cols)
			}
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
	return experiments.FormatFig2(title(t.Sweep, "Co-execution matrix — "+t.Sweep.Name), cells) + "\n", nil
}

// kernelRows reconstructs a kernel sweep's completed cells in grid
// order (sizes, variants, modes). Points whose cell did not complete
// are absent — a zero-valued row would corrupt the vs-serial column.
func kernelRows(t compile.TableNode, results []service.CellResult) ([]compile.KernelPoint, []experiments.KernelMetrics, error) {
	grid, err := compile.KernelGrid(t.Sweep)
	if err != nil {
		return nil, nil, err
	}
	var points []compile.KernelPoint
	var ms []experiments.KernelMetrics
	for _, p := range grid {
		if r, ok := done(results, t.Cells[p.Role()]); ok && r.Kernel != nil {
			points = append(points, p)
			ms = append(ms, *r.Kernel)
		}
	}
	return points, ms, nil
}

// title is the sweep's table heading, or def when the spec sets none.
func title(sw spec.Sweep, def string) string {
	if sw.Title != "" {
		return sw.Title
	}
	return def
}

func kernelTable(t compile.TableNode, results []service.CellResult) (string, error) {
	_, ms, err := kernelRows(t, results)
	if err != nil {
		return "", err
	}
	return experiments.FormatKernelFigure(title(t.Sweep, "Kernel sweep — "+t.Sweep.Name), ms) + "\n", nil
}

// ablationRows labels each row with its variant's value, followed by
// the mode when the sweep has more than one.
func ablationRows(t compile.TableNode, results []service.CellResult) ([]experiments.AblationRow, error) {
	points, ms, err := kernelRows(t, results)
	if err != nil {
		return nil, err
	}
	rows := make([]experiments.AblationRow, len(ms))
	for i, p := range points {
		v, _ := experiments.LookupVariant(p.Variant)
		label := v.Value
		if len(t.Sweep.Modes) > 1 {
			label = fmt.Sprintf("%s, %v", label, p.Mode)
		}
		rows[i] = experiments.AblationRow{Study: t.Sweep.Name, Variant: label, Metrics: ms[i]}
	}
	return rows, nil
}

// selectiveResult pairs the selective sweep's canonical cell with its
// halt=selective variant (spec.Validate pins the sweep to those two).
func selectiveResult(t compile.TableNode, results []service.CellResult) (experiments.SelectiveHaltResult, error) {
	_, ms, err := kernelRows(t, results)
	if err != nil || len(ms) != 2 {
		return experiments.SelectiveHaltResult{}, err
	}
	return experiments.SelectiveHaltResult{Baseline: ms[0], Planned: ms[1]}, nil
}

func sensitivityTable(t compile.TableNode, results []service.CellResult) (string, error) {
	points, ms, err := kernelRows(t, results)
	if err != nil {
		return "", err
	}
	rows := make([]experiments.SensitivityPoint, len(ms))
	for i, p := range points {
		v, _ := experiments.LookupVariant(p.Variant)
		rows[i] = experiments.SensitivityPoint{Param: v.Param, Value: v.Value, Metrics: ms[i]}
	}
	return experiments.FormatSensitivity(title(t.Sweep, "Sensitivity — "+t.Sweep.Name), rows), nil
}

// table1Columns reconstructs a profile sweep's columns, kernels outer
// and modes inner; incomplete cells are absent.
func table1Columns(t compile.TableNode, results []service.CellResult) ([]experiments.Table1Column, error) {
	var cols []experiments.Table1Column
	for _, kernel := range t.Sweep.Kernels {
		for _, name := range t.Sweep.Modes {
			mode, err := spec.ParseMode(name)
			if err != nil {
				return nil, err
			}
			if r, ok := done(results, t.Cells[kernel+"|"+mode.String()]); ok && r.Profile != nil {
				cols = append(cols, *r.Profile)
			}
		}
	}
	return cols, nil
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
			_, ms, err := kernelRows(t, results)
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
		case spec.TableAblation:
			rows, err := ablationRows(t, results)
			if err != nil {
				return nil, err
			}
			// The §3.1 claims read the committed sync sweep's rows, the
			// §3.2 claim the span sweep's.
			switch t.Sweep.Name {
			case "sync":
				d.Sync = append(d.Sync, rows...)
			case "span":
				d.Span = append(d.Span, rows...)
			}
		case spec.TableSelective:
			r, err := selectiveResult(t, results)
			if err != nil {
				return nil, err
			}
			d.Selective = r
		case spec.TableTable1:
			cols, err := table1Columns(t, results)
			if err != nil {
				return nil, err
			}
			d.Table1 = append(d.Table1, cols...)
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
	fmt.Fprintf(&b, "- budget costs are admission estimates (stream cells are exact windows; kernel/profile cells use coarse per-cell guesses), not a cycle meter.\n")
	fmt.Fprintf(&b, "- tables whose sweep mirrors a paper grid are byte-identical to what `paper` prints for it, which runs the committed studies/*.study.json specs through this engine; the goldens in studies/testdata pin Figures 1-5, Table 1, the ablations and the sensitivity sweep.\n")
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
