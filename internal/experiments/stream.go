package experiments

import (
	"fmt"

	"smtexplore/internal/obs"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/smt"
	"smtexplore/internal/streams"
)

// StreamWindowCycles is the measurement window for one stream run — the
// simulated analogue of the paper's ~10-second interval; CPI converges
// well within it.
const StreamWindowCycles = 120_000

// Fig1Row is one bar of Figure 1: the average CPI of a stream under one
// TLP×ILP execution mode.
type Fig1Row struct {
	Stream  streams.Kind
	ILP     streams.ILP
	Threads int // 1 or 2 (same stream on both contexts)
	CPI     float64
}

// MeasureCPI runs one or two copies of the given stream specs and returns
// the per-context CPI over the measurement window (cycles/instructions of
// that context, as the paper computes it).
func MeasureCPI(mcfg smt.Config, specs []streams.Spec, window uint64) ([]float64, error) {
	return measureCPIWith(mcfg, specs, window, nil)
}

// measureCPIWith is MeasureCPI with an optional instrument bundle
// attached to the machine for the duration of the run.
func measureCPIWith(mcfg smt.Config, specs []streams.Spec, window uint64, ins *obs.Instruments) ([]float64, error) {
	if len(specs) == 0 || len(specs) > smt.NumContexts {
		return nil, fmt.Errorf("experiments: %d streams (want 1 or 2)", len(specs))
	}
	m := smt.New(mcfg)
	// Streams typically outlive the measurement window; Close releases
	// their abandoned generators.
	defer m.Close()
	if ins != nil {
		ins.Attach(m)
	}
	for i, sp := range specs {
		sp.Base = streams.DisjointBase(i)
		m.LoadStream(i, streams.Open(sp))
	}
	if _, err := m.Run(window); err != nil {
		return nil, err
	}
	c := m.Counters()
	out := make([]float64, len(specs))
	for i := range specs {
		instr := c.Get(perfmon.InstrRetired, i)
		if instr == 0 {
			return nil, fmt.Errorf("experiments: context %d retired nothing", i)
		}
		out[i] = float64(c.Get(perfmon.Cycles, i)) / float64(instr)
	}
	return out, nil
}

// Fig2Cell is one point of Figure 2: the slowdown factor of Subject when
// co-executed with Partner at the given (shared) ILP level, relative to
// Subject running alone.
type Fig2Cell struct {
	Subject  streams.Kind
	Partner  streams.Kind
	ILP      streams.ILP
	SoloCPI  float64
	CoCPI    float64
	Slowdown float64 // CoCPI/SoloCPI - 1, the paper's "slowdown factor"
}
