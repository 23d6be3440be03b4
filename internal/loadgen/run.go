package loadgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
)

// jobOutcome is one submitted job's fate.
type jobOutcome struct {
	tenant  string
	state   string // "done", "failed", "cancelled", "shed", "error", "lost"
	cause   string // shed: X-Quota-Cause or "backpressure"; error: message
	latency time.Duration
	cells   int
}

// Runner drives one scenario against one target — or, for an HA
// coordinator pair, a comma-separated pair of targets with automatic
// failover.
type Runner struct {
	Target string // host:port of smtd or coordinator; "a,b" for an HA pair
	// Log receives progress lines (nil: quiet).
	Log io.Writer
	// Kill overrides the kill phase's action (tests); nil sends SIGKILL
	// to the pidfile's process.
	Kill func(pidfile string) error

	once sync.Once
	ts   *api.Endpoints
	c    *api.Client
}

// Client budget: retries ride out a coordinator failover (transport
// errors and leaderless 503s rotate through the targets with backoff)
// instead of counting it as errors, and a 429 is final — it is the
// shed the harness measures.
const (
	retries        = 8
	requestTimeout = 10 * time.Second
	// redialWait paces re-dials of a job's event stream after it broke
	// or the target did not know the job (yet).
	redialWait = 100 * time.Millisecond
)

func (r *Runner) setup() {
	r.once.Do(func() {
		r.ts = api.NewEndpoints(r.Target, "")
		r.c = api.NewClient(r.ts, retries, requestTimeout, false)
	})
}

func (r *Runner) targets() *api.Endpoints {
	r.setup()
	return r.ts
}

func (r *Runner) client() *api.Client {
	r.setup()
	return r.c
}

func (r *Runner) logf(format string, v ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, "loadgen: "+format+"\n", v...)
	}
}

// tenantSeed derives one tenant's arrival stream: scenario seed mixed
// with the tenant's name, so streams are independent and stable.
func tenantSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed + h.Sum64()
}

// arrivals precomputes one tenant's Poisson arrival offsets over the
// run. Precomputing (rather than drawing as the run progresses) keeps
// the schedule deterministic even when submission goroutines lag.
func arrivals(t *TenantLoad, seed uint64, duration time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	var out []time.Duration
	at := time.Duration(0)
	for {
		// Exponential inter-arrival with mean 1/rate.
		at += time.Duration(rng.ExpFloat64() / t.RateHz * float64(time.Second))
		if at >= duration {
			return out
		}
		out = append(out, at)
	}
}

// Run executes the scenario and gathers per-tenant statistics. The
// context cancels the whole run (in-flight watchers report "lost").
func (r *Runner) Run(ctx context.Context, sc Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	outcomes := make(chan jobOutcome, 1024)
	var wg sync.WaitGroup

	// Chaos phases on their own timers.
	for i := range sc.Phases {
		p := sc.Phases[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(p.At)):
			}
			switch p.Kind {
			case PhaseKill:
				if err := r.kill(p.Pidfile); err != nil {
					r.logf("phase %s %s: %v", p.Kind, p.Pidfile, err)
				} else {
					r.logf("phase: killed %s at +%v", p.Pidfile, time.Since(start).Round(time.Millisecond))
				}
			case PhaseFaults:
				if err := r.armFaults(ctx, p.Plan); err != nil {
					r.logf("phase %s %s: %v", p.Kind, p.Plan, err)
				} else {
					r.logf("phase: armed fault plan %s at +%v", p.Plan, time.Since(start).Round(time.Millisecond))
				}
			}
		}()
	}

	// One generator per tenant, open-loop: each arrival submits at its
	// scheduled offset regardless of how previous jobs are faring.
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.generate(ctx, t, sc, start, outcomes, &wg)
		}()
	}

	// Close the outcome stream once every generator and watcher is done.
	collected := make(chan *Report, 1)
	go func() {
		rep := newReport(sc, start)
		for o := range outcomes {
			rep.add(o)
		}
		rep.finish(time.Since(start))
		collected <- rep
	}()
	wg.Wait()
	close(outcomes)
	rep := <-collected
	r.collectTelemetry(ctx, rep)
	return rep, nil
}

// armFaults POSTs the plan file to the target's fault API. The daemon
// refuses with 403 unless it was started with -allow-fault-api, which
// surfaces here as a phase error rather than silently healthy load.
func (r *Runner) armFaults(ctx context.Context, planFile string) error {
	data, err := os.ReadFile(planFile)
	if err != nil {
		return err
	}
	return r.client().PostJSON(ctx, "/v1/faults", data)
}

// collectTelemetry asks the target how the run looked from the inside:
// /v1/stats for daemon degradation counters (plain smtd; coordinators
// 404 it) and /v1/cluster for HA failover figures (coordinators; plain
// daemons 404 it). Either being absent just leaves the report's
// corresponding section empty.
func (r *Runner) collectTelemetry(ctx context.Context, rep *Report) {
	// service.Metrics marshals without json tags, so the field names
	// here match the Go names on the wire.
	var m struct {
		BreakerState   string
		StoreDegraded  bool
		BreakerTrips   uint64
		StoreIOErrors  uint64
		FaultsInjected uint64
	}
	if r.client().GetJSON(ctx, "/v1/stats", &m) == nil {
		rep.Daemon = &DaemonStats{
			BreakerState:   m.BreakerState,
			StoreDegraded:  m.StoreDegraded,
			BreakerTrips:   m.BreakerTrips,
			StoreIOErrors:  m.StoreIOErrors,
			FaultsInjected: m.FaultsInjected,
		}
	}
	var top struct {
		Role                   string  `json:"role"`
		Promotions             uint64  `json:"promotions"`
		JobsAdopted            uint64  `json:"jobs_adopted"`
		FailoverLatencySeconds float64 `json:"failover_latency_seconds"`
	}
	if r.client().GetJSON(ctx, "/v1/cluster", &top) == nil && top.Role != "" {
		rep.Promotions = top.Promotions
		rep.JobsAdopted = top.JobsAdopted
		rep.FailoverLatencySeconds = top.FailoverLatencySeconds
	}
}

// generate replays one tenant's precomputed arrival schedule.
func (r *Runner) generate(ctx context.Context, t *TenantLoad, sc Scenario, start time.Time, outcomes chan<- jobOutcome, wg *sync.WaitGroup) {
	sched := arrivals(t, tenantSeed(sc.Seed, t.Name), time.Duration(sc.Duration))
	r.logf("tenant %s: %d arrivals over %v (%.1f/s)", t.Name, len(sched), time.Duration(sc.Duration), t.RateHz)
	var cellSeq uint64
	for _, at := range sched {
		wait := at - time.Since(start)
		if wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			return
		}
		seq := cellSeq
		cellSeq += uint64(t.cells())
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes <- r.submitAndWatch(ctx, t, seq, sc)
		}()
	}
}

// submitAndWatch submits one job and follows it to a terminal state.
// Its latency runs from the submit to the receipt of the job's end
// event.
func (r *Runner) submitAndWatch(ctx context.Context, t *TenantLoad, seq uint64, sc Scenario) jobOutcome {
	out := jobOutcome{tenant: t.Name, cells: t.cells()}
	req := service.SubmitRequest{Priority: t.Priority, Tenant: t.Name}
	if d := time.Duration(t.Deadline); d > 0 {
		req.Deadline = d.String()
	}
	step := t.windowStep()
	for k := 0; k < t.cells(); k++ {
		req.Cells = append(req.Cells, service.CellSpec{
			Type:    service.TypeStream,
			Streams: []service.StreamSpec{{Kind: t.kind()}},
			Window:  t.windowBase() + (seq+uint64(k))*step,
		})
	}

	submitted := time.Now()
	// The per-job Idempotency-Key makes the client's retries safe — if a
	// dying coordinator did accept the first attempt and journal it, the
	// new leader adopts the job and hands back the same ID instead of
	// running it twice.
	id, err := r.client().Submit(ctx, req, fmt.Sprintf("loadgen-%s-%d", t.Name, seq))
	var refused *api.RefusedError
	switch {
	case errors.As(err, &refused) && refused.Status == http.StatusTooManyRequests:
		out.state = "shed"
		if out.cause = refused.Cause; out.cause == "" {
			out.cause = "backpressure"
		}
		return out
	case err != nil:
		out.state, out.cause = "error", err.Error()
		return out
	}

	// Follow to the end event; the target pushes it, so nothing polls.
	// The settle budget bounds how long a job may outlive the arrival
	// window before it counts as lost. A broken stream (the daemon may be
	// mid-restart or mid-failover) or a target that does not know the job
	// yet is re-dialled from the start: only the end event matters.
	fctx, cancel := context.WithDeadline(ctx, time.Now().Add(time.Duration(sc.Duration)+sc.settle()))
	defer cancel()
	for {
		end, err := r.client().Follow(fctx, id, -1, func(service.Event) {})
		if err == nil {
			out.state, out.cause = end.State, end.Error
			out.latency = time.Since(submitted)
			return out
		}
		select {
		case <-fctx.Done():
			out.state = "lost"
			return out
		case <-time.After(redialWait):
		}
	}
}

// kill SIGKILLs the process named by pidfile — the harness's worker-
// death chaos action.
func (r *Runner) kill(pidfile string) error {
	if r.Kill != nil {
		return r.Kill(pidfile)
	}
	data, err := os.ReadFile(pidfile)
	if err != nil {
		return err
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || pid <= 1 {
		return fmt.Errorf("loadgen: pidfile %s: bad pid %q", pidfile, strings.TrimSpace(string(data)))
	}
	return syscall.Kill(pid, syscall.SIGKILL)
}
