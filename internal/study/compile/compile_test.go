package compile

import (
	"testing"

	"smtexplore/internal/experiments"
	"smtexplore/internal/service"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/spec"
)

func mustParse(t *testing.T, in string) *spec.Spec {
	t.Helper()
	s, err := spec.Parse([]byte(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestCompileFig1Grid(t *testing.T) {
	s := mustParse(t, `{"name":"f1","sweeps":[{"name":"fig1","kind":"stream",
		"streams":["fadd","fmul","fadd-mul","iadd","iload"],"ilp":["min","med","max"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// 5 kinds × 3 ILP × {1,2} threads, all distinct.
	if len(p.Cells) != 30 || p.Requested != 30 {
		t.Fatalf("cells = %d (requested %d), want 30", len(p.Cells), p.Requested)
	}
	// Every cell must carry the exact key the Figure 1 harness caches
	// under — that identity is the whole dedupe story.
	idx := p.Tables[0].Cells["fadd|min|2"]
	want := experiments.StreamCellKey(experiments.StreamMachineConfig(), []streams.Spec{
		{Kind: streams.FAddS, ILP: streams.MinILP},
		{Kind: streams.FAddS, ILP: streams.MinILP},
	}, experiments.StreamWindowCycles)
	if p.Cells[idx].Key != want {
		t.Errorf("fadd/min duo key mismatch with the legacy harness key")
	}
	if p.Cells[idx].Cost != experiments.StreamWindowCycles {
		t.Errorf("stream cell cost = %d, want the window", p.Cells[idx].Cost)
	}
	if got := p.Cells[idx].Spec; got.Type != service.TypeStream || len(got.Streams) != 2 {
		t.Errorf("cell spec = %+v", got)
	}
}

func TestCompileDedupesAcrossSweeps(t *testing.T) {
	// The fig2 diagonal duos and solos overlap the fig1 grid cells for
	// the same kinds; compiling both must share cells.
	s := mustParse(t, `{"name":"x","sweeps":[
		{"name":"a","kind":"stream","streams":["fadd","fmul"],"ilp":["min"]},
		{"name":"b","kind":"stream","table":"fig2","streams":["fadd","fmul"],"ilp":["min"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Sweep a: 2×1×2 = 4 cells (2 solos + 2 self-duos).
	// Sweep b: 2 solos (dup) + 4 duos, of which the 2 diagonal ones dup.
	if p.Requested != 10 {
		t.Errorf("requested = %d, want 10", p.Requested)
	}
	if len(p.Cells) != 6 {
		t.Errorf("unique cells = %d, want 6", len(p.Cells))
	}
	if p.Tables[0].Cells["fadd|min|2"] != p.Tables[1].Cells["duo|fadd|fadd|min"] {
		t.Errorf("fig1 duo and fig2 diagonal compiled to different cells")
	}
	if p.Tables[0].Cells["fadd|min|1"] != p.Tables[1].Cells["solo|fadd|min"] {
		t.Errorf("fig1 solo and fig2 solo compiled to different cells")
	}
}

func TestCompileKernelSweep(t *testing.T) {
	s := mustParse(t, `{"name":"k","sweeps":[{"name":"mm","kind":"kernel",
		"kernels":["mm"],"sizes":[32],"modes":["serial","tlp-fine"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(p.Cells))
	}
	mode, _ := spec.ParseMode("tlp-fine")
	want, err := experiments.KernelCellKey("mm", 32, mode)
	if err != nil {
		t.Fatal(err)
	}
	idx := p.Tables[0].Cells["32|tlp-fine"]
	if p.Cells[idx].Key != want {
		t.Errorf("kernel key mismatch with the legacy harness key")
	}
}

func TestCompileKernelDefaultModes(t *testing.T) {
	s := mustParse(t, `{"name":"k","sweeps":[{"name":"mm","kind":"kernel",
		"kernels":["mm"],"sizes":[32]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	modes, err := experiments.KernelModes("mm", 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) != len(modes) {
		t.Errorf("default-mode sweep has %d cells, kernel implements %d modes", len(p.Cells), len(modes))
	}
}

func TestCompileVariants(t *testing.T) {
	s := mustParse(t, `{"name":"v","sweeps":[
		{"name":"a","kind":"kernel","table":"ablation","kernels":["mm"],"sizes":[32],"modes":["tlp-pfetch"],
		 "variants":["wait=spin","wait=spin+pause","wait=halt"]},
		{"name":"b","kind":"kernel","kernels":["mm"],"sizes":[32],"modes":["tlp-pfetch"]},
		{"name":"t","kind":"profile","kernels":["mm","lu"],"modes":["serial","tlp-pfetch"]}]}`)
	p, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// spin+pause is the canonical cell: 3 variants + 1 figure cell + 4
	// profile cells request 8, and 7 are unique.
	if len(p.Cells) != 7 || p.Requested != 8 {
		t.Errorf("cells = %d requested = %d, want 7/8 (spin+pause deduped)", len(p.Cells), p.Requested)
	}
	if p.Tables[0].Cells["32|tlp-pfetch|wait=spin+pause"] != p.Tables[1].Cells["32|tlp-pfetch"] {
		t.Error("the no-op variant did not dedupe onto the canonical cell")
	}
	for _, c := range p.Cells {
		if c.Key == "" {
			t.Errorf("cell %s has no store key", c.Spec.Label())
		}
	}
	if got := p.Cells[p.Tables[2].Cells["lu|tlp-pfetch"]].Spec; got.Type != service.TypeProfile || got.Kernel != "lu" {
		t.Errorf("profile role maps to %+v", got)
	}
	for _, bad := range []string{
		`{"name":"h","sweeps":[{"name":"a","kind":"kernel","table":"ablation","kernels":["mm"],"sizes":[32],"variants":["fig9"]}]}`,
		`{"name":"h","sweeps":[{"name":"a","kind":"kernel","table":"ablation","kernels":["lu"],"sizes":[32],"variants":["wait=halt"]}]}`,
		`{"name":"h","sweeps":[{"name":"a","kind":"profile","kernels":["mm"],"modes":["tlp-fine"]}]}`,
	} {
		if _, err := Compile(mustParse(t, bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
	// Whole tables are variant and profile grids; the harness kind is gone.
	if _, err := spec.Parse([]byte(`{"name":"h","sweeps":[{"name":"a","kind":"harness"}]}`)); err == nil {
		t.Errorf("harness sweep accepted")
	}
}
