package service

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"smtexplore/internal/faultinject"
	"smtexplore/internal/store"
)

// Metrics is a point-in-time snapshot of the service, cache and store
// counters (the structured form behind /metrics).
type Metrics struct {
	JobsDone, JobsFailed, JobsCancelled    uint64
	CellsDone, CellsFailed, CellsCancelled uint64
	JobsActive                             int
	QueueDepth                             int
	QueueCapacity                          int

	CacheHits, CacheMisses, CacheEvictions uint64
	CacheEntries                           int

	HasStore                               bool
	StoreHits, StoreMisses, StoreEvictions uint64
	StoreCorrupt, StoreWrites              uint64
	StoreIOErrors                          uint64
	StoreEntries                           int
	StoreBytes                             int64
	// CellsSimulated is the number of cells that actually ran the
	// simulator: in-memory cache misses the disk store could not serve.
	// A fully warm store keeps this at zero across a whole batch.
	CellsSimulated uint64

	// Robustness counters.
	SubmitRejectedFull     uint64
	SubmitRejectedDraining uint64
	IdemHits               uint64
	CellsTimedOut          uint64
	JobsRecovered          uint64
	JobsAbandoned          uint64

	// Checkpoint and overload-control counters.
	HasCheckpoint        bool
	CheckpointsWritten   uint64
	CheckpointsRestored  uint64
	CheckpointBytes      uint64
	ResumeCyclesSaved    uint64
	CheckpointsOnTimeout uint64
	Preemptions          uint64
	QueueWaitSeconds     float64
	QueueWaitPops        uint64
	QueueWaitEWMASeconds float64
	ShedDeadline         uint64
	ShedAIMD             uint64
	ShedQuota            uint64
	HasAIMD              bool
	AIMDLimit            float64

	// Tenants carries per-tenant accounting rows, keyed by tenant
	// name; present only once a tenant has submitted (or been shed).
	// The cluster coordinator sums these across workers for the fleet
	// view.
	Tenants map[string]TenantMetrics `json:",omitempty"`

	HasBreaker           bool
	BreakerState         string
	StoreDegraded        bool
	BreakerTrips         uint64
	BreakerShortCircuits uint64
	BreakerProbes        uint64

	HasJournal    bool
	JournalWrites uint64
	JournalErrors uint64

	// FaultsInjected counts fires of the armed fault plan (0 when none).
	FaultsInjected uint64

	Goroutines    int
	UptimeSeconds float64
}

// TenantMetrics is one tenant's slice of the service counters — the
// structured form behind the /metrics tenant labels and the per-tenant
// store-namespace accounting.
type TenantMetrics struct {
	JobsAdmitted     uint64
	CellsDone        uint64
	CellsFailed      uint64
	CellsSimulated   uint64
	QueueWaitSeconds float64
	QueueWaitPops    uint64
	CyclesCharged    uint64
	ShedQueuedJobs   uint64
	ShedActiveCells  uint64
	ShedCycleBudget  uint64
	// QueuedJobs and ActiveCells are point-in-time gauges of the
	// tenant's live footprint (the quantities its quotas bound).
	QueuedJobs  int
	ActiveCells int
	// StoreBytesWritten and StoreBytesServed come from the store
	// ledger: bytes this tenant's cells wrote into and read out of the
	// content-addressed store namespace.
	StoreBytesWritten uint64
	StoreBytesServed  uint64
}

// Snapshot collects the current metrics.
func (s *Service) Snapshot() Metrics {
	s.mu.Lock()
	m := Metrics{
		JobsDone:       s.jobsDone,
		JobsFailed:     s.jobsFailed,
		JobsCancelled:  s.jobsCancelled,
		CellsDone:      s.cellsDone,
		CellsFailed:    s.cellsFailed,
		CellsCancelled: s.cellsCancelled,
		JobsActive:     s.active,
		QueueCapacity:  s.cfg.QueueDepth,
		UptimeSeconds:  time.Since(s.started).Seconds(),

		SubmitRejectedFull:     s.rejectedFull,
		SubmitRejectedDraining: s.rejectedDraining,
		IdemHits:               s.idemHits,
		CellsTimedOut:          s.cellsTimedOut,
		JobsRecovered:          s.jobsRecovered,
		JobsAbandoned:          s.jobsAbandoned,

		CheckpointsOnTimeout: s.checkpointsOnTimeout,
		Preemptions:          s.preemptions,
		QueueWaitSeconds:     s.queueWaitSeconds,
		QueueWaitPops:        s.queueWaitPops,
		QueueWaitEWMASeconds: s.queueWaitEWMA,
		ShedDeadline:         s.shedDeadline,
		ShedQuota:            s.shedQuota,
	}
	if len(s.tenants) > 0 || len(s.tenantCells) > 0 {
		m.Tenants = make(map[string]TenantMetrics, len(s.tenants))
		for name, ts := range s.tenants {
			m.Tenants[name] = TenantMetrics{
				JobsAdmitted:     ts.jobsAdmitted,
				CellsDone:        ts.cellsDone,
				CellsFailed:      ts.cellsFailed,
				CellsSimulated:   ts.cellsSimulated,
				QueueWaitSeconds: ts.queueWaitSeconds,
				QueueWaitPops:    ts.queueWaitPops,
				CyclesCharged:    ts.cyclesCharged,
				ShedQueuedJobs:   ts.shedQueuedJobs,
				ShedActiveCells:  ts.shedActiveCells,
				ShedCycleBudget:  ts.shedCycleBudget,
			}
		}
		for name, cells := range s.tenantCells {
			row := m.Tenants[name]
			row.ActiveCells = cells
			m.Tenants[name] = row
		}
	}
	s.mu.Unlock()
	for name, row := range m.Tenants {
		row.QueuedJobs = s.queue.lenTenant(name)
		if lg := s.cfg.StoreLedger; lg != nil {
			u := lg.Usage(name)
			row.StoreBytesWritten, row.StoreBytesServed = u.BytesWritten, u.BytesServed
		}
		m.Tenants[name] = row
	}
	m.QueueDepth = s.queue.len()
	if s.ckStats != nil {
		m.HasCheckpoint = true
		m.CheckpointsWritten, m.CheckpointsRestored, m.CheckpointBytes, m.ResumeCyclesSaved = s.ckStats.Snapshot()
	}
	if s.limiter != nil {
		m.HasAIMD = true
		m.AIMDLimit, m.ShedAIMD = s.limiter.snapshot()
	}
	m.Goroutines = runtime.NumGoroutine()
	m.FaultsInjected = faultinject.Fires()

	cs := s.cfg.Cache.Stats()
	m.CacheHits, m.CacheMisses, m.CacheEvictions, m.CacheEntries = cs.Hits, cs.Misses, cs.Evictions, cs.Entries
	m.CellsSimulated = cs.Misses
	if s.cfg.Store != nil {
		m.HasStore = true
		ss := s.cfg.Store.Stats()
		m.StoreHits, m.StoreMisses, m.StoreEvictions = ss.Hits, ss.Misses, ss.Evictions
		m.StoreCorrupt, m.StoreWrites = ss.Corrupt, ss.Writes
		m.StoreIOErrors = ss.IOErrors
		m.StoreEntries, m.StoreBytes = ss.Entries, ss.Bytes
		// Every in-memory miss consulted the store; the store's hits are
		// the ones that skipped simulation.
		if ss.Hits <= m.CellsSimulated {
			m.CellsSimulated -= ss.Hits
		} else {
			m.CellsSimulated = 0
		}
	}
	if b := s.cfg.Breaker; b != nil {
		m.HasBreaker = true
		bs := b.Stats()
		m.BreakerState = bs.State
		m.StoreDegraded = bs.State != store.BreakerClosed
		m.BreakerTrips, m.BreakerShortCircuits, m.BreakerProbes = bs.Trips, bs.ShortCircuits, bs.Probes
	}
	if jl := s.cfg.Journal; jl != nil {
		m.HasJournal = true
		js := jl.Stats()
		m.JournalWrites, m.JournalErrors = js.Writes, js.Errors
	}
	return m
}

// PromWriter writes Prometheus text exposition format: a # HELP and
// # TYPE header per family, then its samples, each value printed with
// %v.
type PromWriter struct{ W io.Writer }

// Counter writes a counter family with one unlabelled sample.
func (p PromWriter) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(name, v)
}

// Gauge writes a gauge family with one unlabelled sample.
func (p PromWriter) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(name, v)
}

// Family writes the header of a family whose samples follow.
func (p PromWriter) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample; labels are name, value pairs, in order.
func (p PromWriter) Sample(name string, v any, labels ...string) {
	io.WriteString(p.W, name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(p.W, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		io.WriteString(p.W, "}")
	}
	fmt.Fprintf(p.W, " %v\n", v)
}

// WriteProm renders the snapshot in Prometheus text exposition format.
func (m Metrics) WriteProm(w *strings.Builder) {
	p := PromWriter{w}
	p.Family("smtd_jobs_total", "counter", "Jobs finished, by terminal state.")
	p.Sample("smtd_jobs_total", m.JobsDone, "state", "done")
	p.Sample("smtd_jobs_total", m.JobsFailed, "state", "failed")
	p.Sample("smtd_jobs_total", m.JobsCancelled, "state", "cancelled")
	p.Family("smtd_cells_total", "counter", "Cells finished, by terminal state.")
	p.Sample("smtd_cells_total", m.CellsDone, "state", "done")
	p.Sample("smtd_cells_total", m.CellsFailed, "state", "failed")
	p.Sample("smtd_cells_total", m.CellsCancelled, "state", "cancelled")

	p.Gauge("smtd_jobs_active", "Jobs currently executing.", m.JobsActive)
	p.Gauge("smtd_queue_depth", "Jobs waiting in the bounded queue.", m.QueueDepth)
	p.Gauge("smtd_queue_capacity", "Capacity of the bounded queue.", m.QueueCapacity)

	p.Counter("smtd_cache_hits_total", "In-memory result cache hits.", m.CacheHits)
	p.Counter("smtd_cache_misses_total", "In-memory result cache misses.", m.CacheMisses)
	p.Counter("smtd_cache_evictions_total", "In-memory cache LRU evictions.", m.CacheEvictions)
	p.Gauge("smtd_cache_entries", "Resident in-memory cache entries.", m.CacheEntries)

	p.Counter("smtd_cells_simulated_total", "Cells that actually ran the simulator (missed every cache tier).", m.CellsSimulated)

	if m.HasStore {
		p.Counter("smtd_store_hits_total", "Disk store hits.", m.StoreHits)
		p.Counter("smtd_store_misses_total", "Disk store misses.", m.StoreMisses)
		p.Counter("smtd_store_evictions_total", "Disk store LRU evictions.", m.StoreEvictions)
		p.Counter("smtd_store_corrupt_total", "Disk store entries dropped as corrupt.", m.StoreCorrupt)
		p.Counter("smtd_store_writes_total", "Disk store entries written.", m.StoreWrites)
		p.Counter("smtd_store_io_errors_total", "Disk store filesystem errors (reads and writes).", m.StoreIOErrors)
		p.Gauge("smtd_store_entries", "Resident disk store entries.", m.StoreEntries)
		p.Gauge("smtd_store_bytes", "Resident disk store bytes.", m.StoreBytes)
	}

	p.Family("smtd_submit_rejected_total", "counter", "Submissions refused, by reason.")
	p.Sample("smtd_submit_rejected_total", m.SubmitRejectedFull, "reason", "queue_full")
	p.Sample("smtd_submit_rejected_total", m.SubmitRejectedDraining, "reason", "draining")
	p.Counter("smtd_idempotent_hits_total", "Submissions deduplicated onto a live job via Idempotency-Key.", m.IdemHits)
	p.Counter("smtd_cells_timed_out_total", "Cells failed by the watchdog timeout.", m.CellsTimedOut)
	p.Counter("smtd_jobs_recovered_total", "Journaled jobs re-enqueued after a restart.", m.JobsRecovered)
	p.Counter("smtd_jobs_abandoned_total", "Journaled jobs marked failed-with-cause after a restart.", m.JobsAbandoned)

	p.Family("smtd_shed_total", "counter", "Submissions or jobs shed by overload control, by reason.")
	p.Sample("smtd_shed_total", m.ShedDeadline, "reason", "deadline")
	p.Sample("smtd_shed_total", m.ShedAIMD, "reason", "aimd")
	p.Sample("smtd_shed_total", m.ShedQuota, "reason", "quota")
	p.Counter("smtd_queue_wait_seconds_total", "Cumulative time jobs spent queued before a worker picked them up.", m.QueueWaitSeconds)
	p.Gauge("smtd_queue_wait_ewma_seconds", "Exponentially-weighted recent queue wait (the cluster steal signal).", m.QueueWaitEWMASeconds)
	p.Counter("smtd_queue_pops_total", "Jobs handed to workers (denominator for mean queue wait).", m.QueueWaitPops)
	if m.HasAIMD {
		p.Gauge("smtd_aimd_limit", "Current AIMD limit on outstanding (queued+active) jobs.", m.AIMDLimit)
	}

	if m.HasCheckpoint {
		p.Counter("smtd_checkpoints_written_total", "Cell checkpoints written to the sink.", m.CheckpointsWritten)
		p.Counter("smtd_checkpoints_restored_total", "Cells resumed from a checkpoint instead of cycle zero.", m.CheckpointsRestored)
		p.Counter("smtd_checkpoint_bytes_total", "Encoded checkpoint bytes written.", m.CheckpointBytes)
		p.Counter("smtd_resume_cycles_saved_total", "Simulated cycles restores skipped re-running.", m.ResumeCyclesSaved)
		p.Counter("smtd_checkpoints_on_timeout_total", "Watchdog timeouts that secured a final checkpoint before abandoning the cell.", m.CheckpointsOnTimeout)
		p.Counter("smtd_preemptions_total", "Jobs checkpointed and re-queued to make room for higher-priority work.", m.Preemptions)
	}

	if m.HasBreaker {
		degraded := 0
		if m.StoreDegraded {
			degraded = 1
		}
		p.Gauge("smtd_store_degraded", "1 while the store circuit breaker is not closed (memory-only caching).", degraded)
		p.Family("smtd_store_breaker_state", "gauge", "Circuit state (1 on exactly one of the three).")
		for _, st := range []string{store.BreakerClosed, store.BreakerOpen, store.BreakerHalfOpen} {
			v := 0
			if m.BreakerState == st {
				v = 1
			}
			p.Sample("smtd_store_breaker_state", v, "state", st)
		}
		p.Counter("smtd_store_breaker_trips_total", "Circuit transitions to open.", m.BreakerTrips)
		p.Counter("smtd_store_breaker_short_circuits_total", "Store operations refused while the circuit was open.", m.BreakerShortCircuits)
		p.Counter("smtd_store_breaker_probes_total", "Half-open probe operations admitted.", m.BreakerProbes)
	}

	if m.HasJournal {
		p.Counter("smtd_journal_writes_total", "Journal records persisted.", m.JournalWrites)
		p.Counter("smtd_journal_errors_total", "Journal writes that failed.", m.JournalErrors)
	}

	if len(m.Tenants) > 0 {
		names := make([]string, 0, len(m.Tenants))
		for name := range m.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		family := func(name, typ, help string, samples func(t string, v TenantMetrics)) {
			p.Family(name, typ, help)
			for _, t := range names {
				samples(t, m.Tenants[t])
			}
		}
		family("smtd_tenant_jobs_admitted_total", "counter", "Jobs admitted, by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_jobs_admitted_total", v.JobsAdmitted, "tenant", t)
		})
		family("smtd_tenant_cells_total", "counter", "Cells finished, by tenant and terminal state.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_cells_total", v.CellsDone, "tenant", t, "state", "done")
			p.Sample("smtd_tenant_cells_total", v.CellsFailed, "tenant", t, "state", "failed")
		})
		family("smtd_tenant_cells_simulated_total", "counter", "Cells that ran the simulator (missed every cache tier), by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_cells_simulated_total", v.CellsSimulated, "tenant", t)
		})
		family("smtd_tenant_queue_wait_seconds_total", "counter", "Cumulative queue wait, by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_queue_wait_seconds_total", v.QueueWaitSeconds, "tenant", t)
		})
		family("smtd_tenant_queue_pops_total", "counter", "Jobs handed to workers, by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_queue_pops_total", v.QueueWaitPops, "tenant", t)
		})
		family("smtd_tenant_cycles_charged_total", "counter", "Simulated cycles charged against the tenant's budget window.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_cycles_charged_total", v.CyclesCharged, "tenant", t)
		})
		family("smtd_tenant_shed_total", "counter", "Submissions refused by per-tenant quotas, by tenant and cause.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_shed_total", v.ShedQueuedJobs, "tenant", t, "cause", QuotaQueuedJobs)
			p.Sample("smtd_tenant_shed_total", v.ShedActiveCells, "tenant", t, "cause", QuotaActiveCells)
			p.Sample("smtd_tenant_shed_total", v.ShedCycleBudget, "tenant", t, "cause", QuotaCycleBudget)
		})
		family("smtd_tenant_store_bytes_total", "counter", "Store-namespace bytes attributed to the tenant, by direction.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_store_bytes_total", v.StoreBytesWritten, "tenant", t, "dir", "written")
			p.Sample("smtd_tenant_store_bytes_total", v.StoreBytesServed, "tenant", t, "dir", "served")
		})
		family("smtd_tenant_queue_depth", "gauge", "Jobs currently queued, by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_queue_depth", v.QueuedJobs, "tenant", t)
		})
		family("smtd_tenant_active_cells", "gauge", "Live (queued+running) cells, by tenant.", func(t string, v TenantMetrics) {
			p.Sample("smtd_tenant_active_cells", v.ActiveCells, "tenant", t)
		})
	}

	p.Counter("smtd_faults_injected_total", "Fault-plan rule fires (0 unless a plan is armed).", m.FaultsInjected)
	p.Gauge("smtd_goroutines", "Goroutines in the daemon process.", m.Goroutines)
	p.Gauge("smtd_uptime_seconds", "Seconds since the service started.", m.UptimeSeconds)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.Snapshot().WriteProm(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}
