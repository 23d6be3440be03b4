package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"smtexplore/internal/faultinject"
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Cells []CellSpec `json:"cells"`
	// Priority orders the queue (higher first, default 0); a
	// high-priority job may preempt running lower-priority work when
	// checkpointing is enabled.
	Priority int `json:"priority,omitempty"`
	// Deadline is a Go duration ("30s", "5m") measured from admission;
	// empty means none. It becomes an absolute deadline on the job.
	Deadline string `json:"deadline,omitempty"`
	// Tenant is the identity to account the job to; the X-Tenant
	// header takes precedence when both are set. The body field exists
	// so the cluster coordinator can forward tenancy to workers
	// without a custom header path. Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// CellStatus is the progress view of one cell (results stripped).
type CellStatus struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} body (and the submit response).
type JobStatus struct {
	ID      string         `json:"id"`
	State   string         `json:"state"`
	Error   string         `json:"error,omitempty"`
	Created time.Time      `json:"created"`
	Cells   []CellStatus   `json:"cells"`
	Counts  map[string]int `json:"counts"`
}

// JobResult is the GET /v1/jobs/{id}/result body.
type JobResult struct {
	ID    string       `json:"id"`
	State string       `json:"state"`
	Error string       `json:"error,omitempty"`
	Cells []CellResult `json:"cells"`
}

// Status snapshots the job's progress view (cells without results),
// the body of GET /v1/jobs/{id}.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		State:   j.state,
		Error:   j.errMsg,
		Created: j.created,
		Counts:  map[string]int{},
	}
	for _, c := range j.cells {
		st.Cells = append(st.Cells, CellStatus{Index: c.Index, Label: c.Label, State: c.State, Error: c.Error})
		st.Counts[c.State]++
	}
	return st
}

// Handler returns the service's HTTP API: the job routes of
// RegisterJobRoutes plus the daemon-only ones:
//
//	GET    /v1/jobs/{id}/cells/{cell}/artifacts/{name}  obs artifact of an observed cell
//	GET    /v1/stats                                 JSON metrics snapshot (cluster telemetry)
//	GET    /healthz                                  liveness (503 while draining)
//	GET    /metrics                                  Prometheus text metrics
//	POST   /v1/faults                                arm a faultinject plan (requires AllowFaultAPI)
//	DELETE /v1/faults                                disarm the active plan (requires AllowFaultAPI)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	RegisterJobRoutes(mux, s)
	mux.HandleFunc("GET /v1/jobs/{id}/cells/{cell}/artifacts/{name}", s.handleArtifact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/faults", s.handleArmFaults)
	mux.HandleFunc("DELETE /v1/faults", s.handleDisarmFaults)
	return mux
}

// handleArmFaults arms a faultinject plan process-wide — the chaos
// harness's disk-fault axis. Gated behind -allow-fault-api: a daemon
// not started for chaos testing refuses with 403 so no client can turn
// fault injection on in production.
func (s *Service) handleArmFaults(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowFaultAPI {
		WriteError(w, http.StatusForbidden, "fault API disabled; start smtd with -allow-fault-api to enable it")
		return
	}
	var plan faultinject.Plan
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&plan); err != nil {
		WriteError(w, http.StatusBadRequest, "bad fault plan: "+err.Error())
		return
	}
	in, err := faultinject.New(plan)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad fault plan: "+err.Error())
		return
	}
	faultinject.Arm(in)
	WriteJSON(w, http.StatusOK, map[string]any{"armed": true, "rules": len(plan.Rules)})
}

func (s *Service) handleDisarmFaults(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowFaultAPI {
		WriteError(w, http.StatusForbidden, "fault API disabled; start smtd with -allow-fault-api to enable it")
		return
	}
	faultinject.Disarm()
	WriteJSON(w, http.StatusOK, map[string]any{"armed": false})
}

// handleStats serves the structured metrics snapshot as JSON — the
// machine-readable twin of /metrics. The cluster coordinator polls it
// for queue-wait and checkpoint telemetry (steal and migration
// accounting) without scraping Prometheus text.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Service) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, res, ok := jobRoutes{s}.cell(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	listed := false
	for _, a := range res.Artifacts {
		if a == name {
			listed = true
			break
		}
	}
	if !listed {
		WriteError(w, http.StatusNotFound, "unknown artifact "+name)
		return
	}
	// Names come from the artifact list the service built itself (a slug
	// plus a fixed suffix), never from path-traversable client input.
	path := filepath.Join(s.cfg.ArtifactDir, j.ID, fmt.Sprintf("cell-%d", res.Index), name)
	f, err := os.Open(path)
	if err != nil {
		WriteError(w, http.StatusNotFound, "artifact not on disk: "+name)
		return
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	http.ServeContent(w, r, name, info.ModTime(), f)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if b := s.cfg.Breaker; b != nil && b.Degraded() {
		// Degraded is still alive (memory-only caching), so the status
		// stays 200 — a restart would not help. Each poll doubles as a
		// recovery probe, so health checking drives the breaker closed
		// again once the disk heals.
		b.Probe()
		if b.Degraded() {
			fmt.Fprintln(w, "degraded")
			return
		}
	}
	fmt.Fprintln(w, "ok")
}
