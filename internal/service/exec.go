package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/faultinject"
	"smtexplore/internal/kernels"
	"smtexplore/internal/obs"
	"smtexplore/internal/streams"
)

// artifactSuffixes are the files obs.Instruments.Export writes per cell.
var artifactSuffixes = []string{".trace.json", ".occupancy.csv", ".metrics.json"}

// cellCtl is one cell's preemption wiring: the per-cell checkpointing
// config (stop predicate + resume notification already bound) and the
// lever the watchdog pulls to stop this cell alone. Nil when the
// service runs without checkpointing.
type cellCtl struct {
	ck   *experiments.Checkpointing
	stop func(reason string)
}

// stopGrace is how long the watchdog waits for a stopping cell to park
// its final checkpoint.
func (s *Service) stopGrace() time.Duration {
	if s.cfg.StopGrace > 0 {
		return s.cfg.StopGrace
	}
	return 2 * time.Second
}

// execCell runs one cell to completion and returns its result; it never
// propagates errors or panics — both become the cell's failure state, so
// one bad cell cannot take down its batch (let alone the daemon).
// Cancellation of ctx is reported as a distinct cancelled state.
//
// With CellTimeout configured it also arms a watchdog: the computation
// runs in a child goroutine and a cell that blows its budget is failed.
// When the cell is checkpointable, the watchdog first requests a
// cooperative stop and grants StopGrace for a final checkpoint — the
// cell still fails, but a retry resumes from the pause point instead of
// repeating the whole run. Otherwise (or when the grace expires) the
// goroutine is abandoned to finish (or leak — the simulator then has no
// preemption points, which is exactly why the watchdog exists) in the
// background. The channel is buffered so a late finisher parks its
// result and exits instead of blocking forever.
func (s *Service) execCell(ctx context.Context, spec CellSpec, artifactDir string, ctl *cellCtl) CellResult {
	if s.cfg.CellTimeout <= 0 {
		return s.computeCell(ctx, spec, artifactDir, ctl)
	}
	ch := make(chan CellResult, 1)
	go func() { ch <- s.computeCell(ctx, spec, artifactDir, ctl) }()
	timer := time.NewTimer(s.cfg.CellTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res
	case <-timer.C:
	}
	s.mu.Lock()
	s.cellsTimedOut++
	s.mu.Unlock()
	if ctl != nil {
		ctl.stop("watchdog timeout")
		grace := time.NewTimer(s.stopGrace())
		defer grace.Stop()
		select {
		case res := <-ch:
			if res.State == CellPreempted {
				s.mu.Lock()
				s.checkpointsOnTimeout++
				s.mu.Unlock()
				return CellResult{
					Label: spec.Label(),
					State: CellFailed,
					Error: fmt.Sprintf("cell exceeded the %s watchdog budget (checkpointed; a re-run resumes from the pause point)", s.cfg.CellTimeout),
				}
			}
			// Finished (or failed on its own) just past the budget: the
			// result is in hand and correct, so return it rather than
			// discarding paid-for work.
			return res
		case <-grace.C:
		}
	}
	return CellResult{
		Label: spec.Label(),
		State: CellFailed,
		Error: fmt.Sprintf("cell exceeded the %s watchdog budget", s.cfg.CellTimeout),
	}
}

// computeCell is the watchdog-free executor: the recover is installed
// before anything else (including the fault point, so an injected panic
// exercises the same isolation as a real one).
func (s *Service) computeCell(ctx context.Context, spec CellSpec, artifactDir string, ctl *cellCtl) (res CellResult) {
	res = CellResult{Label: spec.Label()}
	defer func() {
		if p := recover(); p != nil {
			res.State = CellFailed
			res.Error = fmt.Sprintf("cell panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if err := faultinject.Hit(faultinject.PointExecCell); err != nil {
		res.State = CellFailed
		res.Error = err.Error()
		return res
	}

	opt := experiments.Options{Cache: s.cfg.Cache}
	opt.Meter = &tenantMeter{s: s, tenant: tenantFromCtx(ctx)}
	if ctl != nil {
		opt.Checkpoint = ctl.ck
	}
	if spec.Observe {
		opt.Observe = &experiments.Observe{Dir: artifactDir}
	}
	return EvalCell(ctx, spec, opt)
}

// EvalCell executes one cell spec against the given cell options and
// maps the outcome onto the cell-state machine. This is the service's
// cell semantics without the daemon around it: computeCell delegates
// here, and the study engine's local backend calls it directly so both
// paths produce identical results for identical specs. Errors and
// panics become the cell's failure state; ctx cancellation is reported
// as the distinct cancelled state.
func EvalCell(ctx context.Context, spec CellSpec, opt experiments.Options) (res CellResult) {
	res = CellResult{Label: spec.Label()}
	defer func() {
		if p := recover(); p != nil {
			res.State = CellFailed
			res.Error = fmt.Sprintf("cell panicked: %v\n%s", p, debug.Stack())
		}
	}()

	var innerLabel string
	var err error
	switch spec.Type {
	case TypeStream:
		var specs []streams.Spec
		if specs, err = spec.streamSpecs(); err == nil {
			innerLabel = experiments.StreamCellLabel(specs, spec.window())
			res.CPI, err = opt.StreamCell(experiments.StreamMachineConfig(), specs, spec.window())
		}
	case TypeKernel:
		var km experiments.KernelMetrics
		km, err = experiments.VariantKernelCell(opt, spec.Kernel, spec.Size, kernelMode(spec.Mode), spec.Variant)
		if err == nil {
			innerLabel = experiments.KernelCellLabel(spec.Kernel, km.Label, kernelMode(spec.Mode), spec.Variant)
			res.Kernel = &km
		}
	case TypeProfile:
		var col experiments.Table1Column
		if col, err = experiments.ProfileCell(opt, spec.Kernel, kernelMode(spec.Mode)); err == nil {
			res.Profile = &col
		}
	default:
		err = fmt.Errorf("unknown cell type %q", spec.Type)
	}

	switch {
	case err == nil:
		res.State = CellDone
		if spec.Observe {
			slug := obs.Slug(innerLabel)
			for _, suf := range artifactSuffixes {
				res.Artifacts = append(res.Artifacts, slug+suf)
			}
		}
	case errors.Is(err, experiments.ErrCellPreempted):
		// The cell yielded at a pause point with its state in the sink;
		// the job layer decides whether it re-queues or fails.
		res.State = CellPreempted
		res.Error = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		// An expired deadline is a distinct, explicit failure cause —
		// never a silent hang, and not a user cancellation either.
		res.State = CellFailed
		res.Error = "deadline exceeded: " + err.Error()
	case errors.Is(err, context.Canceled):
		res.State = CellCancelled
		res.Error = err.Error()
	default:
		res.State = CellFailed
		res.Error = err.Error()
	}
	return res
}

// kernelMode resolves a pre-validated mode name (Validate already ran).
func kernelMode(name string) kernels.Mode {
	m, err := parseMode(name)
	if err != nil {
		panic(err) // unreachable after Validate
	}
	return m
}
