package compile_test

import (
	"testing"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/study/compile"
	"smtexplore/studies"
)

// TestCellKeysArePinned holds canonical kernel cells and Table 1 profile
// cells to the content keys they had before variants and profile cells
// existed: every store written since, and perfbench's oracle, are keyed
// by them.
func TestCellKeysArePinned(t *testing.T) {
	for _, c := range []struct {
		kernel string
		size   int
		mode   kernels.Mode
		want   string
	}{
		{"mm", 64, kernels.TLPPfetch, "4d677517446ff689b3c49e13ba97f01c26ef03128293b41708e12d940ba1ca13"},
		{"lu", 64, kernels.TLPCoarse, "e30a71e3a0119d36e7c596eac0f8d06d99bc2cdc8eebde967ffc0d043240ee8d"},
		{"cg", 0, kernels.Serial, "1ad1da3a0ce7a475cc3c64a9fcad5715c00fa62518db68a9f6aa297fb51f326f"},
		{"bt", 5, kernels.TLPCoarse, "b9875b0d0b4d2a08ba8a765679a9c0064ee34845a48471b2d2949d884b05526b"},
	} {
		if got, err := experiments.KernelCellKey(c.kernel, c.size, c.mode); err != nil || got != c.want {
			t.Errorf("%s %d %v: key %s (%v), want %s", c.kernel, c.size, c.mode, got, err, c.want)
		}
	}
	for _, c := range []struct {
		kernel string
		mode   kernels.Mode
		want   string
	}{
		{"mm", kernels.Serial, "7d60dfc961aad77a4e5739c7ee30db46b81e1e7fb892a0784694e296ab3f1ebe"},
		{"bt", kernels.TLPPfetch, "9bb7f23b7678dac98ec49ca7a402e29f371a31341b2a8117170a8fff81333f8d"},
	} {
		if got, err := experiments.ProfileCellKey(c.kernel, c.mode); err != nil || got != c.want {
			t.Errorf("profile %s %v: key %s (%v), want %s", c.kernel, c.mode, got, err, c.want)
		}
	}
}

// TestTablesDedupeOntoFigureCells compiles the committed figure and
// table sweeps as one plan and checks that each table row that is a
// figure cell, or another table's row, under another name compiles to
// that one cell.
func TestTablesDedupeOntoFigureCells(t *testing.T) {
	s, err := studies.Select("fig3", "fig4", "sync", "span", "partition", "selective", "sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	p, err := compile.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(sweep, role string) int {
		t.Helper()
		for _, tb := range p.Tables {
			if tb.Sweep.Name == sweep {
				if i, ok := tb.Cells[role]; ok {
					return i
				}
			}
		}
		t.Fatalf("sweep %s has no role %q", sweep, role)
		return -1
	}
	same := func(what string, want int, got ...int) {
		t.Helper()
		for _, g := range got {
			if g != want {
				t.Errorf("%s: cell %d, want %d", what, g, want)
			}
		}
	}
	same("Figure 3 mm N=64 tlp-pfetch", cell("fig3", "64|tlp-pfetch"),
		cell("sync", "64|tlp-pfetch|wait=spin+pause"),
		cell("span", "64|tlp-pfetch|span=2 steps (8 KB)"),
		cell("partition", "64|tlp-pfetch|partitioning=static (halved per thread)"))
	same("Figure 4 lu N=64 tlp-coarse", cell("fig4", "64|tlp-coarse"), cell("selective", "64|tlp-coarse"))
	same("Figure 3 mm N=64 tlp-coarse", cell("fig3", "64|tlp-coarse"),
		cell("sensitivity", "64|tlp-coarse|baseline=scaled kernel machine"),
		cell("partition", "64|tlp-coarse|partitioning=static (halved per thread)"))
	same("fully shared mm N=64 tlp-coarse", cell("partition", "64|tlp-coarse|partitioning=fully shared"),
		cell("sensitivity", "64|tlp-coarse|partitioning=fully shared"))
	if cell("selective", "64|tlp-coarse|halt=selective") == cell("fig4", "64|tlp-coarse") {
		t.Error("the selective-halting pass shares its baseline's cell")
	}
}
