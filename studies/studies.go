// Package studies embeds the committed study specs — one per paper
// figure (fig1–fig5), Table 1, the ablations and the sensitivity sweep —
// so the files in this directory are the only place a figure's or a
// table's grid is defined. cmd/paper, the benchmarks and `smtctl study
// run -f studies/<name>.study.json` all run the same documents through
// the study engine, and testdata/ holds each table's golden bytes.
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

// Select gathers the named committed specs (fig1 … sensitivity, each
// expanding to its sweeps) and single sweeps (fig2a, fig5cg, sync, …)
// into one spec, in the given order, so a single engine run compiles,
// dedupes and executes them together. No names selects every committed
// spec.
func Select(names ...string) (*spec.Spec, error) {
	if len(names) == 0 {
		names = specNames
	}
	bySpec, bySweep := map[string][]spec.Sweep{}, map[string]spec.Sweep{}
	for _, name := range specNames {
		s, err := Spec(name)
		if err != nil {
			return nil, err
		}
		bySpec[name] = s.Sweeps
		for _, sw := range s.Sweeps {
			bySweep[sw.Name] = sw
		}
	}
	out := &spec.Spec{Name: "paper"}
	for _, name := range names {
		if sweeps, ok := bySpec[name]; ok {
			out.Sweeps = append(out.Sweeps, sweeps...)
		} else if sw, ok := bySweep[name]; ok {
			out.Sweeps = append(out.Sweeps, sw)
		} else {
			return nil, fmt.Errorf("studies: no committed spec or sweep %q", name)
		}
	}
	return out, out.Validate()
}

// SetSizes replaces the problem sizes of the mm and lu kernel-figure
// and sensitivity sweeps in s (paper's -sizes); nil keeps the committed
// sizes. The ablation and selective tables keep theirs.
func SetSizes(s *spec.Spec, sizes []int) {
	for i, sw := range s.Sweeps {
		if sizes == nil || len(sw.Kernels) == 0 || (sw.Kernels[0] != "mm" && sw.Kernels[0] != "lu") {
			continue
		}
		switch sw.EffectiveTable() {
		case spec.TableKernel:
			s.Sweeps[i].Sizes = sizes
		case spec.TableSensitivity:
			// Every row's delta is against one baseline, so the sweep
			// takes one size: the last.
			s.Sweeps[i].Sizes = sizes[len(sizes)-1:]
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
