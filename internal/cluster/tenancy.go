package cluster

import (
	"fmt"

	"smtexplore/internal/service"
	"smtexplore/internal/tenant"
)

// Coordinator-side multi-tenancy. The coordinator is the fleet's
// admission edge, so it enforces the same per-tenant job/cell quotas a
// single daemon does — but against cluster-wide in-flight totals, which
// a per-worker check cannot see (a tenant spraying one job per worker
// would be under quota everywhere yet over it in aggregate). Cycle
// budgets stay on the workers: cycles are measured where cells run.

// admitTenantLocked gates one submission against the tenant's quotas.
// c.mu must be held. On refusal the per-tenant shed counter is bumped
// and a *service.QuotaError is returned so the HTTP edge and smtctl
// see the identical cause taxonomy as against a single daemon.
func (c *Coordinator) admitTenantLocked(tn string, cells int) error {
	q := c.cfg.Tenants.Config(tn)
	if q.MaxQueuedJobs > 0 && c.tenantJobs[tn] >= q.MaxQueuedJobs {
		c.tenantSheds[tn]++
		return &service.QuotaError{
			Tenant: tn,
			Cause:  service.QuotaQueuedJobs,
			Detail: fmt.Sprintf("%d jobs in flight across the fleet, quota %d", c.tenantJobs[tn], q.MaxQueuedJobs),
		}
	}
	if q.MaxActiveCells > 0 && c.tenantCells[tn]+cells > q.MaxActiveCells {
		c.tenantSheds[tn]++
		return &service.QuotaError{
			Tenant: tn,
			Cause:  service.QuotaActiveCells,
			Detail: fmt.Sprintf("%d cells in flight across the fleet + %d requested exceeds quota %d", c.tenantCells[tn], cells, q.MaxActiveCells),
		}
	}
	return nil
}

// chargeTenantLocked records an admitted job against its tenant.
func (c *Coordinator) chargeTenantLocked(tn string, cells int) {
	c.tenantJobs[tn]++
	c.tenantCells[tn] += cells
}

// releaseTenantLocked undoes chargeTenantLocked when a job concludes.
// Floored defensively: a miscount must never wedge a tenant out.
func (c *Coordinator) releaseTenantLocked(tn string, cells int) {
	if c.tenantJobs[tn] > 0 {
		c.tenantJobs[tn]--
	}
	if c.tenantCells[tn] > cells {
		c.tenantCells[tn] -= cells
	} else {
		c.tenantCells[tn] = 0
	}
	if c.tenantJobs[tn] == 0 && c.tenantCells[tn] == 0 {
		delete(c.tenantJobs, tn)
		delete(c.tenantCells, tn)
	}
}

// QueueWaitEWMA is the fleet's queue wait for Retry-After hints
// (service.JobAPI): the worst live worker's EWMA, so clients back off
// in proportion to the most congested worker they could land on.
func (c *Coordinator) QueueWaitEWMA() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	worst := 0.0
	for _, m := range c.members {
		if m.alive && m.statsOK && m.stats.QueueWaitEWMASeconds > worst {
			worst = m.stats.QueueWaitEWMASeconds
		}
	}
	return worst
}

// normTenant mirrors the daemon's defaulting: no tenant means the
// default tenant, never an empty accounting bucket.
func normTenant(name string) string {
	if name == "" {
		return tenant.Default
	}
	return name
}
