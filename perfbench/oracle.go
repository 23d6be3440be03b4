package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
)

// oracleJSON is the committed expected result of every cell in
// oracleUniverse, plus the simulated counters of every cell the sim
// workloads replay. Regenerate with `perfbench -regen-oracle` only when
// simulator semantics change on purpose.
//
//go:embed oracle.json
var oracleJSON []byte

type oracle struct {
	// Cells maps a cell label to its expected result.
	Cells map[string]outcome `json:"cells"`
	// Counters maps a sim-workload cell label to its simulated counters.
	Counters map[string]counters `json:"counters"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if len(o.Cells) == 0 {
		return nil, fmt.Errorf("oracle: no cells")
	}
	return &o, nil
}

// check compares a completed cell with its expected result. Results are
// compared exactly: the simulator is deterministic and JSON round-trips
// every value in play.
func (o *oracle) check(sp service.CellSpec, got outcome) error {
	want, ok := o.Cells[sp.Label()]
	if !ok {
		return fmt.Errorf("oracle: no entry for %s", sp.Label())
	}
	if !reflect.DeepEqual(want, got) {
		return mismatch{fmt.Errorf("oracle: %s: got %+v, want %+v", sp.Label(), got, want)}
	}
	return nil
}

// checkCell compares a cell result served by a daemon.
func (o *oracle) checkCell(sp service.CellSpec, r service.CellResult) error {
	if r.State != service.CellDone {
		return fmt.Errorf("%s: cell %s: %s", sp.Label(), r.State, r.Error)
	}
	return o.check(sp, outcome{CPI: r.CPI, Kernel: r.Kernel})
}

// checkCounters compares a replayed cell's simulated counters.
func (o *oracle) checkCounters(sp service.CellSpec, got counters) error {
	want, ok := o.Counters[sp.Label()]
	if !ok {
		return fmt.Errorf("oracle: no counters for %s", sp.Label())
	}
	if want != got {
		return mismatch{fmt.Errorf("oracle: %s counters: got %+v, want %+v", sp.Label(), got, want)}
	}
	return nil
}

// regenOracle simulates every cell of oracleUniverse through the
// canonical experiments entry points (the ones the daemon executes) and
// replays the sim workloads' cells for their counters, then writes the
// oracle to path.
func regenOracle(path string, workers int) error {
	cells := oracleUniverse()
	replayed := map[string]bool{}
	for _, sp := range append(simStreamsUniverse(), simKernelsBlock(nil)...) {
		replayed[sp.Label()] = true
	}
	type row struct {
		out outcome
		ctr *counters
	}
	rows, err := runner.Map(context.Background(), workers, cells, func(_ context.Context, sp service.CellSpec) (row, error) {
		var r row
		switch sp.Type {
		case service.TypeStream:
			specs, err := streamSpecs(sp)
			if err != nil {
				return r, err
			}
			if r.out.CPI, err = (experiments.Options{}).StreamCell(experiments.StreamMachineConfig(), specs, sp.Window); err != nil {
				return r, err
			}
		case service.TypeKernel:
			mode, err := kernelMode(sp)
			if err != nil {
				return r, err
			}
			km, err := experiments.NamedKernelCell(experiments.Options{}, sp.Kernel, sp.Size, mode)
			if err != nil {
				return r, err
			}
			r.out.Kernel = &km
		}
		if replayed[sp.Label()] {
			c, _, err := replay(sp, nil, 0, 0)
			if err != nil {
				return r, err
			}
			r.ctr = &c
		}
		return r, nil
	})
	if err != nil {
		return err
	}
	o := oracle{Cells: map[string]outcome{}, Counters: map[string]counters{}}
	for i, sp := range cells {
		o.Cells[sp.Label()] = rows[i].out
		if rows[i].ctr != nil {
			o.Counters[sp.Label()] = *rows[i].ctr
		}
	}
	data, err := json.Marshal(o) // map keys marshal sorted: the file is deterministic
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("oracle: %d cells, %d with counters -> %s\n", len(o.Cells), len(o.Counters), path)
	return nil
}
