package report_test

import (
	"context"
	"testing"

	"smtexplore/internal/report"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/synth"
	"smtexplore/studies"
)

// TestCollectQuick exercises the real collection path for Table 1: the
// committed table1 study through the study engine and
// synth.CollectData (the figure grids are covered by cmd/paper's
// quick-report golden).
func TestCollectQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("collection is slow")
	}
	s, err := studies.Select("table1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := studies.Run(context.Background(), s, execute.NewLocal(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.CollectData(res.Plan, res.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Table1) != 12 {
		t.Fatalf("collection returned %d Table 1 columns, want 12", len(d.Table1))
	}
	if d.Sync != nil || d.Span != nil {
		t.Error("a Table 1 study collected ablation rows")
	}
	vs := report.Evaluate(d)
	if len(vs) == 0 {
		t.Fatal("no verdicts")
	}
}
