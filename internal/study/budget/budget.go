// Package budget decides which of a compiled plan's cells a study may
// actually run.
//
// Admission is cost-based and warm-aware: a cell whose content key is
// already in the store is free (executing it is a read, not a
// simulation), so only cold cells are charged against the study's cycle
// and cell budgets. Costs are the plan's per-cell estimates — exact for
// stream cells (a measurement runs its window and stops), coarse for
// kernel and profile cells — and over-budget cells are skipped with a
// recorded reason so the synthesized report can list them in its
// limitations appendix instead of failing silently.
package budget

import (
	"fmt"

	"smtexplore/internal/study/compile"
	"smtexplore/internal/study/spec"
)

// Prober answers "is this content key already materialized?" — the
// store seam. A nil Prober treats every keyed cell as cold.
type Prober interface {
	Has(key string) bool
}

// ProbeFunc adapts a closure to Prober.
type ProbeFunc func(key string) bool

func (f ProbeFunc) Has(key string) bool { return f(key) }

// Skip records one cell the budget refused, for the report appendix.
type Skip struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Reason string `json:"reason"`
}

// Decision is the admission outcome over one plan.
type Decision struct {
	// Admitted lists the cell indices to execute, in plan order
	// (includes the warm ones — executing them is how their results are
	// read back).
	Admitted []int
	// Warm is the subset of Admitted found in the store (cost 0).
	Warm []int
	// Skipped lists refused cells with reasons.
	Skipped []Skip
	// ColdCells and EstimatedCycles are the admitted cold work.
	ColdCells       int
	EstimatedCycles uint64
}

// Admit walks the plan in order, charging cold cells against the budget
// and skipping whatever no longer fits. First-fit in plan order keeps
// the decision deterministic and explainable ("everything before this
// line ran") rather than solving a packing problem.
func Admit(p *compile.Plan, b spec.Budget, probe Prober) Decision {
	var d Decision
	for i, c := range p.Cells {
		if c.Key != "" && probe != nil && probe.Has(c.Key) {
			d.Admitted = append(d.Admitted, i)
			d.Warm = append(d.Warm, i)
			continue
		}
		if b.Cells > 0 && d.ColdCells >= b.Cells {
			d.Skipped = append(d.Skipped, Skip{
				Index: i, Label: c.Spec.Label(),
				Reason: fmt.Sprintf("cell budget exhausted (%d cold cells admitted)", d.ColdCells),
			})
			continue
		}
		if b.Cycles > 0 && d.EstimatedCycles+c.Cost > b.Cycles {
			d.Skipped = append(d.Skipped, Skip{
				Index: i, Label: c.Spec.Label(),
				Reason: fmt.Sprintf("cycle budget exhausted (~%d of %d estimated cycles committed, cell needs ~%d)",
					d.EstimatedCycles, b.Cycles, c.Cost),
			})
			continue
		}
		d.Admitted = append(d.Admitted, i)
		d.ColdCells++
		d.EstimatedCycles += c.Cost
	}
	return d
}
