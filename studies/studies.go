// Package studies embeds the committed study specs — one per paper
// figure (fig1–fig5), Table 1, the ablations and the sensitivity sweep —
// so the files in this directory are the only place a figure's or a
// table's grid is defined. The CLIs, the benchmarks and `smtctl study
// run -f studies/<name>.study.json` all run the same documents through
// the study engine.
package studies

import (
	"context"
	"embed"
	"fmt"

	"smtexplore/internal/service"
	"smtexplore/internal/study"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
)

//go:embed *.study.json *.study.md
var files embed.FS

// specNames are the committed specs, in paper order.
var specNames = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "table1", "ablations", "sensitivity"}

// Spec parses the committed spec <name>.study.json (or .study.md).
func Spec(name string) (*spec.Spec, error) {
	b, err := files.ReadFile(name + ".study.json")
	if err != nil {
		if b, err = files.ReadFile(name + ".study.md"); err != nil {
			return nil, fmt.Errorf("studies: no committed spec %q", name)
		}
	}
	return spec.Parse(b)
}

// Select gathers the named sweeps of the committed specs (fig1, fig2a,
// fig2b, fig2c, fig3, fig4, fig5cg, fig5bt, table1, sync, span,
// partition, selective, sensitivity) into one spec, in the given order,
// so a single engine run compiles, dedupes and executes them together.
func Select(sweeps ...string) (*spec.Spec, error) {
	byName := map[string]spec.Sweep{}
	for _, name := range specNames {
		s, err := Spec(name)
		if err != nil {
			return nil, err
		}
		for _, sw := range s.Sweeps {
			byName[sw.Name] = sw
		}
	}
	out := &spec.Spec{Name: "paper"}
	for _, name := range sweeps {
		sw, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("studies: no committed sweep %q", name)
		}
		out.Sweeps = append(out.Sweeps, sw)
	}
	return out, out.Validate()
}

// SetSizes replaces the problem sizes of the mm and lu figure sweeps in
// s (the CLIs' -sizes); nil keeps the committed sizes. The ablation and
// sensitivity tables keep theirs.
func SetSizes(s *spec.Spec, sizes []int) {
	for i, sw := range s.Sweeps {
		if sizes != nil && sw.EffectiveTable() == spec.TableKernel && (sw.Kernels[0] == "mm" || sw.Kernels[0] == "lu") {
			s.Sweeps[i].Sizes = sizes
		}
	}
}

// Run runs s through the study engine on backend and fails on the first
// cell that did not complete: a figure or table needs every one of its
// cells.
func Run(ctx context.Context, s *spec.Spec, backend execute.Backend, workers int) (*study.Result, error) {
	res, err := study.Run(ctx, s, study.RunConfig{Backend: backend, Workers: workers})
	if err != nil {
		return nil, err
	}
	for _, c := range res.Results {
		if c.State == service.CellFailed || c.State == service.CellCancelled {
			return nil, fmt.Errorf("studies: cell %s %s: %s", c.Label, c.State, c.Error)
		}
	}
	return res, nil
}
