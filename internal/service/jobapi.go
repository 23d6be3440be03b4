package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"smtexplore/internal/tenant"
)

// JobAPI is the job surface a client sees. A single daemon (*Service)
// and a cluster coordinator both implement it, and RegisterJobRoutes
// serves it, so a client cannot tell the two apart.
type JobAPI interface {
	SubmitWith(specs []CellSpec, opts SubmitOptions) (*Job, error)
	Job(id string) (*Job, bool)
	Jobs() []*Job
	Cancel(id string) bool
	// QueueWaitEWMA is the recent queue wait, in seconds, that a shed
	// submission's Retry-After is derived from.
	QueueWaitEWMA() float64
}

// ValidateSubmit is the admission check every job edge runs before any
// queueing or routing: a non-empty batch of valid cells (observe cells
// only where artifacts are served) under a valid tenant name. It returns
// the normalised tenant; its errors are the edge's 400 bodies, so a
// daemon and a coordinator refuse a submission in the same words.
func ValidateSubmit(specs []CellSpec, tenantName string, artifacts bool) (string, error) {
	if len(specs) == 0 {
		return "", errors.New("service: empty batch")
	}
	for i, sp := range specs {
		if err := sp.Validate(artifacts); err != nil {
			return "", fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	tn := NormTenant(tenantName)
	if !tenant.ValidName(tn) {
		return "", fmt.Errorf("service: invalid tenant name %q", tn)
	}
	return tn, nil
}

// ErrUnavailable is matched (errors.Is) by submission refusals that a
// retry a second later may clear: HTTP 503 with Retry-After: 1.
var ErrUnavailable = errors.New("service: temporarily unavailable")

// Unavailable returns an error with the given text that matches
// ErrUnavailable.
func Unavailable(text string) error { return &unavailableError{text} }

type unavailableError struct{ text string }

func (e *unavailableError) Error() string        { return e.text }
func (e *unavailableError) Is(target error) bool { return target == ErrUnavailable }

// RegisterJobRoutes serves api's job surface on mux:
//
//	POST   /v1/jobs                           submit a batch
//	GET    /v1/jobs                           list jobs
//	GET    /v1/jobs/{id}                      job status
//	DELETE /v1/jobs/{id}                      cancel
//	GET    /v1/jobs/{id}/events               SSE progress stream
//	GET    /v1/jobs/{id}/result               full results (terminal jobs)
//	GET    /v1/jobs/{id}/cells/{cell}/result  one cell's result
func RegisterJobRoutes(mux *http.ServeMux, api JobAPI) {
	h := jobRoutes{api}
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /v1/jobs/{id}/result", h.result)
	mux.HandleFunc("GET /v1/jobs/{id}/cells/{cell}/result", h.cellResult)
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the API's error body, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// retryAfter derives the Retry-After hint for shed responses from a
// queue-wait EWMA in seconds: twice the recent wait (a shed submission
// would have joined the back of that queue), floored at 1s so an idle
// service still rate-limits retries, capped at 30s so a congestion
// spike cannot park clients for minutes.
func retryAfter(ewma float64) string {
	secs := int(math.Ceil(2 * ewma))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

type jobRoutes struct{ api JobAPI }

func (h jobRoutes) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The body field carries the tenant between machines; the header
	// wins when a client sets both.
	opts := SubmitOptions{IdemKey: r.Header.Get("Idempotency-Key"), Priority: req.Priority, Tenant: req.Tenant}
	if t := r.Header.Get("X-Tenant"); t != "" {
		opts.Tenant = t
	}
	if req.Deadline != "" {
		d, err := time.ParseDuration(req.Deadline)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad deadline: "+err.Error())
			return
		}
		opts.Deadline = time.Now().Add(d)
	}
	j, err := h.api.SubmitWith(req.Cells, opts)
	if err != nil {
		h.refuse(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Status())
}

// refuse maps a submission error to its response.
func (h jobRoutes) refuse(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var quotaErr *QuotaError
	switch {
	case errors.As(err, &quotaErr):
		// Per-tenant quota refusal: the cause lets the client tell its
		// own overrun from service overload.
		w.Header().Set("Retry-After", retryAfter(h.api.QueueWaitEWMA()))
		w.Header().Set("X-Quota-Cause", quotaErr.Cause)
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShedLoad):
		// Backpressure, scaled to the queue wait recent jobs saw.
		w.Header().Set("Retry-After", retryAfter(h.api.QueueWaitEWMA()))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDeadlineExpired):
		// Pointless to retry as-is: the client must send a fresh deadline.
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrUnavailable):
		// Refused, not lost: a failed journal write, no live workers, or
		// a coordinator demoted mid-submit. Retrying shortly is safe.
		w.Header().Set("Retry-After", "1")
		code = http.StatusServiceUnavailable
	}
	WriteError(w, code, err.Error())
}

func (h jobRoutes) list(w http.ResponseWriter, r *http.Request) {
	var out []JobStatus
	for _, j := range h.api.Jobs() {
		out = append(out, j.Status())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (h jobRoutes) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := h.api.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
	}
	return j, ok
}

func (h jobRoutes) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.job(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Status())
	}
}

func (h jobRoutes) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !h.api.Cancel(id) {
		WriteError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	j, _ := h.api.Job(id)
	WriteJSON(w, http.StatusOK, j.Status())
}

func (h jobRoutes) result(w http.ResponseWriter, r *http.Request) {
	j, ok := h.job(w, r)
	if !ok {
		return
	}
	state, errMsg := j.State()
	switch state {
	case JobDone, JobFailed, JobCancelled:
	default:
		WriteError(w, http.StatusConflict, fmt.Sprintf("job %s is %s; results are available once it is terminal", j.ID, state))
		return
	}
	WriteJSON(w, http.StatusOK, JobResult{ID: j.ID, State: state, Error: errMsg, Cells: j.Results()})
}

func (h jobRoutes) cell(w http.ResponseWriter, r *http.Request) (*Job, CellResult, bool) {
	j, ok := h.job(w, r)
	if !ok {
		return nil, CellResult{}, false
	}
	i, err := strconv.Atoi(r.PathValue("cell"))
	results := j.Results()
	if err != nil || i < 0 || i >= len(results) {
		WriteError(w, http.StatusNotFound, "unknown cell "+r.PathValue("cell"))
		return nil, CellResult{}, false
	}
	return j, results[i], true
}

func (h jobRoutes) cellResult(w http.ResponseWriter, r *http.Request) {
	_, res, ok := h.cell(w, r)
	if !ok {
		return
	}
	switch res.State {
	case CellDone, CellFailed, CellCancelled:
	default:
		WriteError(w, http.StatusConflict, fmt.Sprintf("cell %d is %s", res.Index, res.State))
		return
	}
	WriteJSON(w, http.StatusOK, res)
}

// events streams job progress as Server-Sent Events: the full event
// history replays first, then live events as cells complete. The
// stream ends with an "end" event carrying the terminal job state, so a
// client can distinguish done / failed / cancelled without a second
// request.
//
// Every progress event carries an SSE id (its sequence number), and a
// reconnecting client resumes where it left off via the standard
// Last-Event-ID header (or ?since=<seq>, for clients without header
// control): events after that point replay, then the stream follows
// live — no duplicates, no gaps. The end event carries no id, so a
// reconnect after it replays from the right spot instead of past it.
//
// The headers are flushed before the first event, so a client
// following a still-queued job knows at once that the stream is open.
func (h jobRoutes) events(w http.ResponseWriter, r *http.Request) {
	j, ok := h.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			next = n + 1
		}
	} else if v := r.URL.Query().Get("since"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			next = n + 1
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		evs, notify, terminal := j.EventsSince(next)
		for _, ev := range evs {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
			next++
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			// Re-check freshness: only finish once every event is out.
			if evs2, _, _ := j.EventsSince(next); len(evs2) == 0 {
				state, errMsg := j.State()
				data, _ := json.Marshal(map[string]string{"job": j.ID, "state": state, "error": errMsg})
				fmt.Fprintf(w, "event: end\ndata: %s\n\n", data)
				flusher.Flush()
				return
			}
			continue
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}
