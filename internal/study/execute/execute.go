// Package execute runs a compiled study's admitted cells through one of
// two interchangeable backends: an in-process local runner or a remote
// smtd (single daemon or cluster coordinator — the wire API is the
// same). The backend seam is what lets the study flow stay identical
// whether cells execute in this process or across a fleet.
package execute

import (
	"context"
	"fmt"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
	"smtexplore/internal/study/budget"
)

// Options carries the study's scheduling hints into a backend run.
type Options struct {
	// Priority and Deadline map onto the job API's admission fields;
	// locally the deadline bounds the run's context.
	Priority int
	Deadline time.Duration
	// Workers bounds local parallelism (≤0 → GOMAXPROCS); remote
	// backends ignore it (the daemon has its own worker pool).
	Workers int
}

// Outcome is one backend run over a cell list.
type Outcome struct {
	// Results is index-aligned with the submitted cells.
	Results []service.CellResult
	// Simulated counts cold simulations actually performed: the local
	// backend measures store write-throughs (every cold keyed cell
	// writes exactly once); the remote backend reports the daemon's
	// cells-simulated delta, which includes any concurrent load. -1
	// means unknown.
	Simulated int
	// Backend names the executor for the report.
	Backend string
	// Notes are caveats for the report's verification appendix.
	Notes []string
}

// Backend executes cells. Run must return one result per submitted
// cell, in order, and never fail an entire batch because one cell
// failed — per-cell errors live in the results.
type Backend interface {
	Name() string
	Run(ctx context.Context, cells []service.CellSpec, opt Options) (*Outcome, error)
	// Probe exposes the backend's warm-result visibility for budget
	// admission; nil when the backend cannot see its store from here
	// (remote daemons dedupe on their side regardless).
	Probe() budget.Prober
}

// Local executes cells in-process through service.EvalCell — the exact
// cell semantics the daemon applies, minus the daemon.
type Local struct {
	// Cache is the run's single-flight result cache, normally tiered
	// onto Store.
	Cache *runner.Cache
	// Store is the disk tier shared with the CLI tools and daemons;
	// optional, but without it warm detection and simulation accounting
	// are unavailable.
	Store *store.Store
	// Observe writes per-cell artifacts for matching cells (paper's
	// -observe); nil observes nothing.
	Observe *experiments.Observe
}

// NewLocal builds a local backend over an optional disk store.
func NewLocal(st *store.Store) *Local {
	cache := runner.NewCache()
	if st != nil {
		cache = cache.WithTier(st)
	}
	return &Local{Cache: cache, Store: st}
}

func (l *Local) Name() string { return "local" }

// Probe answers warm-key queries straight from the store.
func (l *Local) Probe() budget.Prober {
	if l.Store == nil {
		return nil
	}
	return budget.ProbeFunc(func(key string) bool {
		_, ok, err := l.Store.Get(key)
		return ok && err == nil
	})
}

func (l *Local) Run(ctx context.Context, cells []service.CellSpec, opt Options) (*Outcome, error) {
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	var before store.Stats
	if l.Store != nil {
		before = l.Store.Stats()
	}
	// Results land in place: on cancellation runner.Map returns no
	// slice, and the cells that did run must keep their results.
	results := make([]service.CellResult, len(cells))
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	_, err := runner.Map(ctx, opt.Workers, order, func(ctx context.Context, i int) (struct{}, error) {
		results[i] = service.EvalCell(ctx, cells[i], experiments.Options{Cache: l.Cache, Observe: l.Observe})
		return struct{}{}, nil
	})
	for i := range results {
		// EvalCell never errors; only a cancelled context leaves cells
		// unstarted. Mark them so the report can say which ran.
		if results[i].State == "" {
			results[i] = service.CellResult{Label: cells[i].Label(), State: service.CellCancelled, Error: err.Error()}
		}
		results[i].Index = i
	}
	out := &Outcome{Results: results, Backend: l.Name(), Simulated: -1}
	if l.Store != nil {
		out.Simulated = int(l.Store.Stats().Writes - before.Writes)
	}
	return out, nil
}

// Remote executes cells as one job through the job-API client — a
// coordinator address, or an HA pair, works identically to a single
// smtd.
type Remote struct {
	Client *api.Client
}

func (r *Remote) Name() string { return "daemon" }

// Probe is nil remotely: the daemon's store is not visible from here,
// and it deduplicates warm keys itself — admission just cannot credit
// them in advance.
func (r *Remote) Probe() budget.Prober { return nil }

func (r *Remote) Run(ctx context.Context, cells []service.CellSpec, opt Options) (*Outcome, error) {
	req := service.SubmitRequest{Cells: cells, Priority: opt.Priority}
	if opt.Deadline > 0 {
		req.Deadline = opt.Deadline.String()
	}
	before, statsErr := r.Client.Stats(ctx)
	id, err := r.Client.Submit(ctx, req, runner.Key("study-job", cells, opt.Priority, req.Deadline))
	if err != nil {
		return nil, fmt.Errorf("execute: submit: %w", err)
	}
	// The job's event stream ends when the job does; the results are
	// fetched the moment it ends.
	if _, err := r.Client.Follow(ctx, id, -1, func(service.Event) {}); err != nil {
		return nil, fmt.Errorf("execute: follow %s: %w", id, err)
	}
	res, err := r.Client.Result(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("execute: result %s: %w", id, err)
	}
	out := &Outcome{Results: res.Cells, Backend: r.Name(), Simulated: -1}
	if after, err2 := r.Client.Stats(ctx); err2 == nil && statsErr == nil {
		out.Simulated = int(after.CellsSimulated - before.CellsSimulated)
		out.Notes = append(out.Notes,
			"simulated-cell count is the daemon-wide delta over the study and includes any concurrent load")
	}
	return out, nil
}
