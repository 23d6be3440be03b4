package study

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtexplore/internal/cluster"
	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
)

func parseFile(t *testing.T, path string) *spec.Spec {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	s, err := spec.Parse(b)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return s
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFig1SpecParityAndWarmReuse is the tentpole's correctness proof in
// miniature: the committed Figure 1 spec, run through the engine, must
// emit the exact bytes `streams -fig 1` prints, and a second run over
// the same store must simulate nothing.
func TestFig1SpecParityAndWarmReuse(t *testing.T) {
	s := parseFile(t, filepath.Join("..", "..", "studies", "fig1.study.json"))
	storeDir := t.TempDir()
	outDir := t.TempDir()
	ctx := context.Background()

	cold, err := Run(ctx, s, RunConfig{
		Backend: execute.NewLocal(openStore(t, storeDir)), Dir: outDir,
	})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	rows, err := experiments.Fig1(ctx, experiments.Options{Cache: runner.NewCache()},
		experiments.StreamMachineConfig(), experiments.Fig1Kinds())
	if err != nil {
		t.Fatalf("legacy fig1: %v", err)
	}
	legacy := experiments.FormatFig1(rows) + "\n"

	if len(cold.Tables) != 1 || cold.Tables[0].Name != "fig1" {
		t.Fatalf("tables: %+v", cold.Tables)
	}
	if cold.Tables[0].Text != legacy {
		t.Fatalf("study fig1 table is not byte-identical to the legacy harness:\n--- study ---\n%s--- legacy ---\n%s",
			cold.Tables[0].Text, legacy)
	}
	if cold.Summary.Simulated != 30 || cold.Summary.Warm != 0 || cold.Summary.UniqueCells != 30 {
		t.Errorf("cold summary: %+v", cold.Summary)
	}
	if cold.Summary.State != "done" {
		t.Errorf("cold state = %q", cold.Summary.State)
	}

	// Warm re-run: fresh cache, same store — everything must be served
	// from disk, nothing simulated, output byte-identical.
	warm, err := Run(ctx, s, RunConfig{
		Backend: execute.NewLocal(openStore(t, storeDir)), Dir: outDir,
	})
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if warm.Summary.Simulated != 0 {
		t.Errorf("warm run simulated %d cells, want 0", warm.Summary.Simulated)
	}
	if warm.Summary.Warm != 30 {
		t.Errorf("warm run saw %d warm cells, want 30", warm.Summary.Warm)
	}
	if warm.Tables[0].Text != legacy {
		t.Errorf("warm table diverged from the legacy bytes")
	}

	// Persistence: summary, report and table are on disk and loadable.
	sum, err := LoadSummary(outDir, "fig1")
	if err != nil {
		t.Fatalf("LoadSummary: %v", err)
	}
	if sum.SpecHash != s.Hash() || sum.Simulated != 0 {
		t.Errorf("persisted summary: %+v", sum)
	}
	md, err := LoadReport(outDir, "fig1")
	if err != nil {
		t.Fatalf("LoadReport: %v", err)
	}
	for _, want := range []string{
		"# Study report — Figure 1",
		"skipped cells: none",
		"cold simulations this run: 0",
		"## Deltas vs. the paper",
		"claims reproduced",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report is missing %q", want)
		}
	}
	tb, err := os.ReadFile(filepath.Join(outDir, "fig1", "tables", "fig1.txt"))
	if err != nil || string(tb) != legacy {
		t.Errorf("persisted table diverged (err %v)", err)
	}
}

// TestTable1SpecParity proves the committed Markdown spec regenerates
// Table 1 byte-identically to `kernels -table 1`.
func TestTable1SpecParity(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 runs twelve kernel cells")
	}
	s := parseFile(t, filepath.Join("..", "..", "studies", "table1.study.md"))
	ctx := context.Background()
	st := openStore(t, t.TempDir())

	res, err := Run(ctx, s, RunConfig{Backend: execute.NewLocal(st)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	cols, err := experiments.Table1(ctx, experiments.Options{Cache: runner.NewCache().WithTier(st)})
	if err != nil {
		t.Fatalf("legacy table1: %v", err)
	}
	legacy := experiments.FormatTable1(cols)
	if res.Tables[0].Text != legacy {
		t.Fatalf("study table1 is not byte-identical to the legacy harness:\n--- study ---\n%s--- legacy ---\n%s",
			res.Tables[0].Text, legacy)
	}
	if s.Title == "" || !strings.HasPrefix(s.Title, "Table 1") {
		t.Errorf("markdown title not picked up: %q", s.Title)
	}
}

// TestRemoteBackendParity swaps the backend for a real daemon over HTTP
// and requires the identical table bytes — the backend seam's contract.
func TestRemoteBackendParity(t *testing.T) {
	inline := `{"name":"mini","sweeps":[{"name":"mini","kind":"stream",
		"streams":["fadd","iload"],"ilp":["min"],"window":20000}]}`
	s, err := spec.Parse([]byte(inline))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	local, err := Run(ctx, s, RunConfig{Backend: execute.NewLocal(openStore(t, t.TempDir()))})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}

	storeDir := t.TempDir()
	st := openStore(t, storeDir)
	svc := service.New(service.Config{Workers: 2, Cache: runner.NewCache().WithTier(st), Store: st})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	remote, err := Run(ctx, s, RunConfig{Backend: &execute.Remote{Client: cluster.NewRemote("w", addr).Client}})
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if remote.Tables[0].Text != local.Tables[0].Text {
		t.Fatalf("backends disagree:\n--- local ---\n%s--- remote ---\n%s",
			local.Tables[0].Text, remote.Tables[0].Text)
	}
	if remote.Summary.Backend != "daemon" {
		t.Errorf("backend name = %q", remote.Summary.Backend)
	}
	if remote.Summary.Simulated != 4 {
		t.Errorf("daemon simulated %d cells, want 4", remote.Summary.Simulated)
	}
}

// TestBudgetSkipsLandInReport: over-budget cells are skipped, reported,
// and flip the study to partial — never silently dropped.
func TestBudgetSkipsLandInReport(t *testing.T) {
	inline := `{"name":"tight","budget":{"cells":1},"sweeps":[{"name":"s","kind":"stream",
		"streams":["fadd"],"ilp":["min"],"threads":[1,2],"window":5000}]}`
	s, err := spec.Parse([]byte(inline))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, RunConfig{Backend: execute.NewLocal(openStore(t, t.TempDir()))})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Summary.State != "partial" || res.Summary.Skipped != 1 || res.Summary.Simulated != 1 {
		t.Fatalf("summary: %+v", res.Summary)
	}
	if !strings.Contains(res.Report, "cell budget exhausted") {
		t.Errorf("report does not explain the skip")
	}
	// The skipped duo renders as zero; the admitted solo must be real.
	if !strings.Contains(res.Tables[0].Text, "0.00") {
		t.Errorf("skipped cell should render as zero:\n%s", res.Tables[0].Text)
	}
}
