package experiments

import (
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/syncprim"
)

// selectiveThresholdDivisor sets selective halting's cutoff. The paper
// halts where threads "spin for a considerable portion of their total
// execution time"; the cutoff is 2% of the profiled runtime.
const selectiveThresholdDivisor = 50

// planSelective is the profiling pass of the §3.1 selective-halting
// methodology: it runs the lu cell with its default spin+pause
// barriers, measures the wait cycles at every barrier, and returns the
// cell's configuration with halt embedded only in the barriers whose
// waits pass the cutoff, plus the number of barriers profiled and
// planned to halt. The kernel is rebuilt identically from the returned
// configuration (same cell allocation order), so the plan's cells line
// up in the second pass.
func (c kernelCell) planSelective() (cfg lu.Config, waits, halts int, err error) {
	cfg = c.cfg.(lu.Config)
	b, err := lu.New(cfg)
	if err != nil {
		return cfg, 0, 0, err
	}
	m, err := runMachine(b, c.mode, c.mcfg, nil)
	if err != nil {
		return cfg, 0, 0, err
	}
	defer m.Close()
	profile := m.WaitProfile()
	cfg.WaitPlan = syncprim.PlanFromProfile(profile, m.Cycle()/selectiveThresholdDivisor, syncprim.SpinPause)
	for _, k := range cfg.WaitPlan {
		if k == syncprim.HaltWait {
			halts++
		}
	}
	return cfg, len(profile), halts, nil
}
