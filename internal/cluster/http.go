package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"smtexplore/internal/service"
)

// WorkerInfo is one worker's row in the topology view.
type WorkerInfo struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// Outstanding is the coordinator's last view of the worker's queued
	// plus active jobs (the steal heuristic's load proxy).
	Outstanding int `json:"outstanding"`
	// QueueWaitEWMASeconds is the worker's recent queue-wait telemetry.
	QueueWaitEWMASeconds float64 `json:"queue_wait_ewma_seconds"`
	// LastHeartbeatAgeSeconds is how long ago this worker last
	// registered or answered a probe (-1: never seen responding).
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
}

// Topology is the GET /v1/cluster body: the fleet as the coordinator
// sees it.
type Topology struct {
	Workers []WorkerInfo `json:"workers"`
	Live    int          `json:"live"`
	Vnodes  int          `json:"vnodes"`

	CellsForwarded uint64 `json:"cells_forwarded"`
	Steals         uint64 `json:"steals"`
	JobsRecovered  uint64 `json:"jobs_recovered"`
	MigratedCells  uint64 `json:"migrated_cells"`
	WorkersLost    uint64 `json:"workers_lost"`
	Registrations  uint64 `json:"registrations"`

	// HA fields, set only when the coordinator runs as half of a pair.
	Role                   string   `json:"role,omitempty"` // "leader" | "standby"
	LeaderAddr             string   `json:"leader_addr,omitempty"`
	LeaseTerm              uint64   `json:"lease_term,omitempty"`
	JournalSeq             uint64   `json:"journal_seq,omitempty"`
	StandbyLagBytes        int64    `json:"standby_lag_bytes,omitempty"`
	JobsAdopted            uint64   `json:"jobs_adopted,omitempty"`
	Promotions             uint64   `json:"promotions,omitempty"`
	Demotions              uint64   `json:"demotions,omitempty"`
	FailoverLatencySeconds float64  `json:"failover_latency_seconds,omitempty"`
	Peers                  []string `json:"peers,omitempty"`
}

// Topology snapshots the fleet for /v1/cluster and smtctl cluster.
func (c *Coordinator) Topology() Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := Topology{
		Vnodes:         c.ring.vnodes,
		CellsForwarded: c.cellsForwarded,
		Steals:         c.steals,
		JobsRecovered:  c.jobsRecovered,
		MigratedCells:  c.migratedCells,
		WorkersLost:    c.workersLost,
		Registrations:  c.registrations,
	}
	t.JobsAdopted = c.jobsAdopted
	for _, n := range sortedNamesLocked(c.members) {
		m := c.members[n]
		hbAge := -1.0
		if !m.lastSeen.IsZero() {
			hbAge = time.Since(m.lastSeen).Seconds()
		}
		t.Workers = append(t.Workers, WorkerInfo{
			Name:                    n,
			Addr:                    m.w.Addr(),
			Alive:                   m.alive,
			Outstanding:             outstanding(m),
			QueueWaitEWMASeconds:    m.stats.QueueWaitEWMASeconds,
			LastHeartbeatAgeSeconds: hbAge,
		})
		if m.alive {
			t.Live++
		}
	}
	return t
}

// Handler serves the coordinator's HTTP API: the job routes a single
// daemon serves (service.RegisterJobRoutes, the same handler set), which
// is what makes smtctl and every existing client cluster-transparent,
// plus /v1/cluster, /v1/cluster/register, /healthz and /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	service.RegisterJobRoutes(mux, c)
	mux.HandleFunc("GET /v1/cluster", c.handleTopology)
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.Topology())
}

// handleRegister admits a worker into the fleet: the -join heartbeat
// POSTs {"name", "addr"} here every few hundred milliseconds, which
// doubles as re-registration after a coordinator or worker restart.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Addr == "" {
		service.WriteError(w, http.StatusBadRequest, "missing addr")
		return
	}
	c.AddWorker(c.dial(req.Name, req.Addr))
	service.WriteJSON(w, http.StatusOK, c.Topology())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := c.Topology()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if t.Live == 0 {
		http.Error(w, "no live workers", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.writeMetrics(service.PromWriter{W: w})
}

// writeMetrics writes the coordinator's own smtd_cluster_* families
// plus fleet-wide sums of the worker counters the smoke tests and
// dashboards already watch (cells simulated, store traffic,
// checkpoint/resume accounting) — each from the coordinator's last
// telemetry snapshot of that worker.
func (c *Coordinator) writeMetrics(p service.PromWriter) {
	c.mu.Lock()
	t := struct {
		workers, live                       int
		jobsDone, jobsFailed, jobsCancelled uint64
		cellsForwarded, steals              uint64
		jobsRecovered, migratedCells        uint64
		jobsAdopted                         uint64
		workersLost, registrations          uint64
	}{
		workers:        len(c.members),
		jobsDone:       c.jobsDone,
		jobsFailed:     c.jobsFailed,
		jobsCancelled:  c.jobsCancelled,
		cellsForwarded: c.cellsForwarded,
		steals:         c.steals,
		jobsRecovered:  c.jobsRecovered,
		migratedCells:  c.migratedCells,
		jobsAdopted:    c.jobsAdopted,
		workersLost:    c.workersLost,
		registrations:  c.registrations,
	}
	var agg service.Metrics
	// Fleet-wide per-tenant rollup: each worker's last telemetry summed
	// by tenant, plus the coordinator's own admission-edge sheds and
	// in-flight gauges (which no worker can see).
	type tenantAgg struct {
		jobsAdmitted, cellsDone, cellsFailed uint64
		cyclesCharged, workerSheds           uint64
		coordSheds                           uint64
		inflightJobs, inflightCells          int
	}
	tenants := make(map[string]*tenantAgg)
	trow := func(name string) *tenantAgg {
		ta, ok := tenants[name]
		if !ok {
			ta = &tenantAgg{}
			tenants[name] = ta
		}
		return ta
	}
	names := sortedNamesLocked(c.members)
	for _, n := range names {
		m := c.members[n]
		if m.alive {
			t.live++
		}
		if !m.statsOK {
			continue
		}
		agg.CellsSimulated += m.stats.CellsSimulated
		agg.CellsDone += m.stats.CellsDone
		agg.CacheHits += m.stats.CacheHits
		agg.StoreHits += m.stats.StoreHits
		agg.StoreWrites += m.stats.StoreWrites
		agg.CheckpointsWritten += m.stats.CheckpointsWritten
		agg.CheckpointsRestored += m.stats.CheckpointsRestored
		agg.ResumeCyclesSaved += m.stats.ResumeCyclesSaved
		for tn, tm := range m.stats.Tenants {
			ta := trow(tn)
			ta.jobsAdmitted += tm.JobsAdmitted
			ta.cellsDone += tm.CellsDone
			ta.cellsFailed += tm.CellsFailed
			ta.cyclesCharged += tm.CyclesCharged
			ta.workerSheds += tm.ShedQueuedJobs + tm.ShedActiveCells + tm.ShedCycleBudget
		}
	}
	for tn, n := range c.tenantSheds {
		trow(tn).coordSheds = n
	}
	for tn, n := range c.tenantJobs {
		trow(tn).inflightJobs = n
	}
	for tn, n := range c.tenantCells {
		trow(tn).inflightCells = n
	}
	tenantNames := make([]string, 0, len(tenants))
	for tn := range tenants {
		tenantNames = append(tenantNames, tn)
	}
	sort.Strings(tenantNames)
	c.mu.Unlock()

	p.Gauge("smtd_cluster_workers", "Registered workers.", t.workers)
	p.Gauge("smtd_cluster_workers_live", "Workers currently on the ring.", t.live)
	p.Counter("smtd_cluster_jobs_done_total", "Coordinator jobs finished successfully.", t.jobsDone)
	p.Counter("smtd_cluster_jobs_failed_total", "Coordinator jobs finished failed.", t.jobsFailed)
	p.Counter("smtd_cluster_jobs_cancelled_total", "Coordinator jobs cancelled.", t.jobsCancelled)
	p.Counter("smtd_cluster_cells_forwarded_total", "Cells forwarded to workers.", t.cellsForwarded)
	p.Counter("smtd_cluster_steals_total", "Groups rerouted off overloaded ring owners.", t.steals)
	p.Counter("smtd_cluster_jobs_recovered_total", "Groups migrated off dead workers.", t.jobsRecovered)
	p.Counter("smtd_cluster_migrated_cells_total", "Cells migrated off dead workers.", t.migratedCells)
	p.Counter("smtd_cluster_jobs_adopted_total", "Jobs re-adopted from the routing journal after promotion.", t.jobsAdopted)
	p.Counter("smtd_cluster_workers_lost_total", "Workers declared dead.", t.workersLost)
	p.Counter("smtd_cluster_registrations_total", "Worker (re-)registrations.", t.registrations)
	p.Counter("smtd_cluster_fleet_cells_simulated_total", "Fleet-wide simulator runs (last telemetry).", agg.CellsSimulated)
	p.Counter("smtd_cluster_fleet_cells_done_total", "Fleet-wide cells finished (last telemetry).", agg.CellsDone)
	p.Counter("smtd_cluster_fleet_store_hits_total", "Fleet-wide shared-store hits (last telemetry).", agg.StoreHits)
	p.Counter("smtd_cluster_fleet_store_writes_total", "Fleet-wide shared-store writes (last telemetry).", agg.StoreWrites)
	p.Counter("smtd_cluster_fleet_checkpoints_written_total", "Fleet-wide checkpoints written (last telemetry).", agg.CheckpointsWritten)
	p.Counter("smtd_cluster_fleet_checkpoints_restored_total", "Fleet-wide checkpoints restored (last telemetry).", agg.CheckpointsRestored)
	p.Counter("smtd_cluster_fleet_resume_cycles_saved_total", "Fleet-wide cycles resumed instead of re-simulated (last telemetry).", agg.ResumeCyclesSaved)

	if len(tenantNames) == 0 {
		return
	}
	family := func(name, typ, help string, samples func(tn string, ta *tenantAgg)) {
		p.Family(name, typ, help)
		for _, tn := range tenantNames {
			samples(tn, tenants[tn])
		}
	}
	family("smtd_cluster_tenant_jobs_admitted_total", "counter", "Fleet-wide jobs admitted per tenant (last telemetry).", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_jobs_admitted_total", ta.jobsAdmitted, "tenant", tn)
	})
	family("smtd_cluster_tenant_cells_total", "counter", "Fleet-wide finished cells per tenant and state (last telemetry).", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_cells_total", ta.cellsDone, "tenant", tn, "state", "done")
		p.Sample("smtd_cluster_tenant_cells_total", ta.cellsFailed, "tenant", tn, "state", "failed")
	})
	family("smtd_cluster_tenant_cycles_charged_total", "counter", "Fleet-wide simulated cycles charged per tenant (last telemetry).", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_cycles_charged_total", ta.cyclesCharged, "tenant", tn)
	})
	family("smtd_cluster_tenant_shed_total", "counter", "Per-tenant quota sheds, split by enforcement edge.", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_shed_total", ta.coordSheds, "tenant", tn, "edge", "coordinator")
		p.Sample("smtd_cluster_tenant_shed_total", ta.workerSheds, "tenant", tn, "edge", "worker")
	})
	family("smtd_cluster_tenant_inflight_jobs", "gauge", "Coordinator jobs currently in flight per tenant.", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_inflight_jobs", ta.inflightJobs, "tenant", tn)
	})
	family("smtd_cluster_tenant_inflight_cells", "gauge", "Coordinator cells currently in flight per tenant.", func(tn string, ta *tenantAgg) {
		p.Sample("smtd_cluster_tenant_inflight_cells", ta.inflightCells, "tenant", tn)
	})
}
