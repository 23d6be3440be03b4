package service

// Per-tenant admission control and accounting. The scheduler half of
// multi-tenancy lives in queue.go (deficit-weighted round-robin across
// tenants); this file is the admission half: quota checks at submit
// time with quota-specific causes, and the per-tenant counters behind
// the /metrics tenant labels.

import (
	"context"
	"fmt"
	"time"

	"smtexplore/internal/tenant"
)

// Quota causes, reported in QuotaError and the per-tenant shed metric
// labels. They name the exhausted resource so a client (and the load
// harness's assertions) can tell a queue-depth rejection from a
// cycle-budget one.
const (
	QuotaQueuedJobs  = "queued-jobs"
	QuotaActiveCells = "active-cells"
	QuotaCycleBudget = "cycle-budget"
)

// QuotaError reports a submission refused by a per-tenant quota. The
// HTTP layer maps it to 429 with the cause in the error body and an
// X-Quota-Cause header, distinct from global backpressure
// (ErrQueueFull) and AIMD shedding (ErrShedLoad): a tenant over its
// own quota should slow itself down, not conclude the service is
// overloaded.
type QuotaError struct {
	Tenant string
	Cause  string
	Detail string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over quota (%s): %s", e.Tenant, e.Cause, e.Detail)
}

// tenantStats is one tenant's counters, guarded by Service.mu.
type tenantStats struct {
	jobsAdmitted           uint64
	cellsDone, cellsFailed uint64
	cellsSimulated         uint64
	queueWaitSeconds       float64
	queueWaitPops          uint64
	cyclesCharged          uint64
	shedQueuedJobs         uint64
	shedActiveCells        uint64
	shedCycleBudget        uint64
}

// tstatsLocked finds or creates the stats row for a tenant. Callers
// hold s.mu.
func (s *Service) tstatsLocked(name string) *tenantStats {
	ts := s.tenants[name]
	if ts == nil {
		ts = &tenantStats{}
		s.tenants[name] = ts
	}
	return ts
}

// NormTenant maps the empty identity onto the default tenant, so no job
// is ever charged to an empty accounting bucket.
func NormTenant(name string) string {
	if name == "" {
		return tenant.Default
	}
	return name
}

// admitTenantLocked runs the per-tenant quota gate for a submission of
// `cells` cells. Order is cheapest-first; the first exhausted quota
// wins and is the one the client sees. Callers hold s.mu.
func (s *Service) admitTenantLocked(tn string, cells int) error {
	q := s.cfg.Tenants.Config(tn)
	if q.MaxQueuedJobs > 0 {
		if depth := s.queue.lenTenant(tn); depth >= q.MaxQueuedJobs {
			s.tstatsLocked(tn).shedQueuedJobs++
			return &QuotaError{Tenant: tn, Cause: QuotaQueuedJobs,
				Detail: fmt.Sprintf("%d jobs queued, quota %d", depth, q.MaxQueuedJobs)}
		}
	}
	if q.MaxActiveCells > 0 {
		if live := s.tenantCells[tn]; live+cells > q.MaxActiveCells {
			s.tstatsLocked(tn).shedActiveCells++
			return &QuotaError{Tenant: tn, Cause: QuotaActiveCells,
				Detail: fmt.Sprintf("%d cells live + %d submitted exceeds quota %d", live, cells, q.MaxActiveCells)}
		}
	}
	if rem, bounded := s.cfg.Tenants.BudgetRemaining(tn, time.Now()); bounded && rem == 0 {
		s.tstatsLocked(tn).shedCycleBudget++
		return &QuotaError{Tenant: tn, Cause: QuotaCycleBudget,
			Detail: fmt.Sprintf("cycle budget %d exhausted for this window", q.CycleBudget)}
	}
	return nil
}

// tenantCtxKey carries the owning tenant through the job context into
// the cell executor, which is where the per-tenant meter binds — the
// executor's signature stays tenant-free for the tests that stub it.
type tenantCtxKey struct{}

func withTenantCtx(ctx context.Context, tn string) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, tn)
}

func tenantFromCtx(ctx context.Context) string {
	tn, _ := ctx.Value(tenantCtxKey{}).(string)
	return NormTenant(tn)
}

// tenantMeter implements runner.Meter for one tenant: tier traffic
// goes to the store ledger, simulate counts to the tenant's stats row.
// Under single-flight the computing caller gets the attribution; a
// joined or memory-served lookup charges nothing — the bytes moved at
// most once, and they were charged then.
type tenantMeter struct {
	s      *Service
	tenant string
}

func (m *tenantMeter) CacheServed() {}
func (m *tenantMeter) TierServed(n int) {
	m.s.cfg.StoreLedger.ChargeServe(m.tenant, n)
}
func (m *tenantMeter) TierWritten(n int) {
	m.s.cfg.StoreLedger.ChargeWrite(m.tenant, n)
}
func (m *tenantMeter) Simulated() {
	m.s.mu.Lock()
	m.s.tstatsLocked(m.tenant).cellsSimulated++
	m.s.mu.Unlock()
}

// cellCycles estimates the simulated-cycle cost of one completed cell
// for cycle-budget accounting: kernels report their exact cycle count,
// stream cells cost their measurement window, and profile cells are not
// charged (deliberately coarse, like the budget itself). The charge is
// the cell's compute footprint whether or not a cache tier served it:
// the budget is an admission-rate control, not a CPU meter.
func cellCycles(spec CellSpec, res CellResult) uint64 {
	if res.Kernel != nil {
		return res.Kernel.Cycles
	}
	if spec.Type == TypeStream {
		return spec.window()
	}
	return 0
}
