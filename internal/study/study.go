// Package study is the experiment-plan engine: it compiles a
// declarative study spec into a deduplicated DAG of content-keyed
// cells, admits them against the study's budget, executes them through
// an interchangeable backend (in-process runner or remote smtd), and
// synthesizes result tables plus a self-contained Markdown report.
//
// The flow is a fixed pipeline over narrow modules —
// spec → compile → budget → execute → synth — so backends, stores and
// report shapes evolve independently:
//
//	spec.Parse      JSON/Markdown document → validated Spec
//	compile.Compile Spec → deduped, content-keyed cell DAG
//	budget.Admit    cycle/cell admission, warm cells free
//	execute.Backend local runner or smtd/cluster job API
//	synth.Tables    figure tables (paper's exact bytes)
//	synth.Report    Markdown report + limitations appendix
package study

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smtexplore/internal/service"
	"smtexplore/internal/study/budget"
	"smtexplore/internal/study/compile"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
	"smtexplore/internal/study/synth"
)

// RunConfig configures one engine run.
type RunConfig struct {
	// Backend executes the admitted cells.
	Backend execute.Backend
	// Dir is the study state root; the run persists under Dir/<name>/
	// (study.json, report.md, tables/*.txt). Empty disables
	// persistence.
	Dir string
	// Workers bounds local parallelism.
	Workers int
}

// Summary is the persisted study.json: everything `smtctl study
// status` shows without re-reading the report.
type Summary struct {
	Name            string   `json:"name"`
	Title           string   `json:"title,omitempty"`
	SpecHash        string   `json:"specHash"`
	Backend         string   `json:"backend"`
	State           string   `json:"state"` // done | partial
	GridPoints      int      `json:"gridPoints"`
	UniqueCells     int      `json:"uniqueCells"`
	Warm            int      `json:"warm"`
	ColdAdmitted    int      `json:"coldAdmitted"`
	EstimatedCycles uint64   `json:"estimatedCycles"`
	Skipped         int      `json:"skipped"`
	Failed          int      `json:"failed"`
	Simulated       int      `json:"simulated"` // -1 = unknown
	Tables          []string `json:"tables"`
}

// Result is one completed engine run.
type Result struct {
	Summary Summary
	Tables  []synth.Table
	// Report is the synthesized Markdown.
	Report string
	// Plan is the compiled study; with Results it feeds
	// synth.CollectData.
	Plan *compile.Plan
	// Results is plan-aligned (skipped cells zero-valued).
	Results []service.CellResult
}

// Run executes a validated spec end to end. Per-cell failures and
// budget skips never fail the run — they land in the report's
// appendix and the summary counts; only infrastructure errors
// (compile, backend transport, persistence) do.
func Run(ctx context.Context, s *spec.Spec, cfg RunConfig) (*Result, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("study: no backend configured")
	}
	plan, err := compile.Compile(s)
	if err != nil {
		return nil, err
	}
	decision := budget.Admit(plan, s.Budget, cfg.Backend.Probe())

	cells := make([]service.CellSpec, len(decision.Admitted))
	for i, idx := range decision.Admitted {
		cells[i] = plan.Cells[idx].Spec
	}
	var deadline time.Duration
	if s.Deadline != "" {
		deadline, _ = time.ParseDuration(s.Deadline) // validated by Parse
	}
	outcome, err := cfg.Backend.Run(ctx, cells, execute.Options{
		Priority: s.Priority, Deadline: deadline, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("study: execute: %w", err)
	}
	if len(outcome.Results) != len(cells) {
		return nil, fmt.Errorf("study: backend returned %d results for %d cells", len(outcome.Results), len(cells))
	}

	// Scatter backend results back onto plan indices; skipped cells
	// stay zero-valued (synth treats them as missing).
	results := make([]service.CellResult, len(plan.Cells))
	for i, idx := range decision.Admitted {
		results[idx] = outcome.Results[i]
		results[idx].Index = idx
	}

	tables, err := synth.Tables(plan, results)
	if err != nil {
		return nil, err
	}
	md := synth.Report(synth.Input{
		Spec: s, Plan: plan, Decision: decision,
		Outcome: outcome, Results: results, Tables: tables,
	})

	failed := 0
	for _, r := range results {
		if r.State == service.CellFailed || r.State == service.CellCancelled {
			failed++
		}
	}
	state := "done"
	if failed > 0 || len(decision.Skipped) > 0 {
		state = "partial"
	}
	title := s.Title
	if title == "" {
		title = s.Name
	}
	sum := Summary{
		Name: s.Name, Title: title, SpecHash: s.Hash(),
		Backend: outcome.Backend, State: state,
		GridPoints: plan.Requested, UniqueCells: len(plan.Cells),
		Warm: len(decision.Warm), ColdAdmitted: decision.ColdCells,
		EstimatedCycles: decision.EstimatedCycles,
		Skipped:         len(decision.Skipped), Failed: failed,
		Simulated: outcome.Simulated,
	}
	for _, t := range tables {
		sum.Tables = append(sum.Tables, t.Name)
	}

	res := &Result{Summary: sum, Tables: tables, Report: md, Plan: plan, Results: results}
	if cfg.Dir != "" {
		if err := persist(cfg.Dir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// StateDir is where a named study persists under a root.
func StateDir(root, name string) string { return filepath.Join(root, name) }

// persist writes the study's state directory atomically enough for a
// CLI: tables first, then the report, then the summary (the summary's
// presence marks a complete run).
func persist(root string, res *Result) error {
	dir := StateDir(root, res.Summary.Name)
	tdir := filepath.Join(dir, "tables")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	for _, t := range res.Tables {
		if err := os.WriteFile(filepath.Join(tdir, t.Name+".txt"), []byte(t.Text), 0o644); err != nil {
			return fmt.Errorf("study: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "report.md"), []byte(res.Report), 0o644); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	b, err := json.MarshalIndent(res.Summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "study.json"), append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("study: %w", err)
	}
	return nil
}

// LoadSummary reads a persisted study's summary.
func LoadSummary(root, name string) (*Summary, error) {
	b, err := os.ReadFile(filepath.Join(StateDir(root, name), "study.json"))
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("study: %s: %w", name, err)
	}
	return &s, nil
}

// LoadReport reads a persisted study's Markdown report.
func LoadReport(root, name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(StateDir(root, name), "report.md"))
	if err != nil {
		return "", fmt.Errorf("study: %w", err)
	}
	return string(b), nil
}
