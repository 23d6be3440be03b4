// Package studies embeds the committed study specs, one per paper
// figure (fig1–fig5), so the JSON files in this directory are the only
// place a figure's grid is defined. The CLIs, the benchmarks and
// `smtctl study run -f studies/<name>.study.json` all run the same
// documents through the study engine.
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

//go:embed *.study.json
var files embed.FS

// figureSpecs are the committed per-figure specs, in paper order.
var figureSpecs = []string{"fig1", "fig2", "fig3", "fig4", "fig5"}

// Spec parses the committed spec <name>.study.json.
func Spec(name string) (*spec.Spec, error) {
	b, err := files.ReadFile(name + ".study.json")
	if err != nil {
		return nil, fmt.Errorf("studies: no committed spec %q", name)
	}
	return spec.Parse(b)
}

// Figures gathers the named figure sweeps (fig1, fig2a, fig2b, fig2c,
// fig3, fig4, fig5cg, fig5bt) into one spec, in the given order, so a
// single engine run compiles, dedupes and executes them together.
func Figures(sweeps ...string) (*spec.Spec, error) {
	byName := map[string]spec.Sweep{}
	for _, name := range figureSpecs {
		s, err := Spec(name)
		if err != nil {
			return nil, err
		}
		for _, sw := range s.Sweeps {
			byName[sw.Name] = sw
		}
	}
	out := &spec.Spec{Name: "figures"}
	for _, name := range sweeps {
		sw, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("studies: no figure sweep %q", name)
		}
		out.Sweeps = append(out.Sweeps, sw)
	}
	return out, out.Validate()
}

// SetSizes replaces the problem sizes of the mm and lu sweeps in s (the
// CLIs' -sizes); nil keeps the committed sizes.
func SetSizes(s *spec.Spec, sizes []int) {
	for i, sw := range s.Sweeps {
		if sizes != nil && sw.Kind == spec.KindKernel && (sw.Kernels[0] == "mm" || sw.Kernels[0] == "lu") {
			s.Sweeps[i].Sizes = sizes
		}
	}
}

// Run runs s through the study engine on backend and fails on the first
// cell that did not complete: a figure needs every one of its cells.
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
