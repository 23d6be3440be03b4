package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"strings"
	"time"

	"smtexplore/internal/service"
)

// Worker is the coordinator's remote-executor seam: the narrow slice of
// one smtd's API the cluster needs. The production implementation is
// Remote (HTTP against a worker daemon); tests swap in in-process
// fakes, which is what keeps steal/migration logic unit-testable
// without sockets.
type Worker interface {
	// Name identifies the worker on the hash ring.
	Name() string
	// Addr is the worker's host:port (diagnostics and topology views).
	Addr() string
	// Submit enqueues a batch remotely and returns the remote job ID.
	// idemKey guards against double-enqueue when a 202 response is lost.
	Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error)
	// Status fetches a remote job's progress view.
	Status(ctx context.Context, id string) (service.JobStatus, error)
	// Follow streams a remote job's progress: it calls onEvent for each
	// event after seq since (-1: the whole history, replayed first) and
	// returns the terminal state once the job ends. An error means the
	// stream broke first (resume from the last seq seen) or, wrapping
	// ErrJobNotFound, that the worker does not know the job. ctx bounds
	// the stream.
	Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (string, error)
	// Result fetches a terminal remote job's full results.
	Result(ctx context.Context, id string) (service.JobResult, error)
	// Cancel aborts a remote job (idempotent server-side).
	Cancel(ctx context.Context, id string) error
	// Health probes liveness (nil on a serving worker).
	Health(ctx context.Context) error
	// Stats fetches the worker's structured metrics snapshot — the
	// queue-wait and checkpoint telemetry behind stealing and the
	// cluster-wide metric aggregates.
	Stats(ctx context.Context) (service.Metrics, error)
}

// ErrJobNotFound reports a remote job its worker does not know (a
// restart without a journal): the group must be placed afresh.
var ErrJobNotFound = errors.New("cluster: remote job not found")

// Remote is the HTTP Worker: the existing single-daemon job API is the
// cluster's wire protocol, so a worker smtd needs no cluster-specific
// endpoints at all.
type Remote struct {
	name string
	addr string
	c    *http.Client
}

// NewRemote builds the HTTP client for the worker at addr (host:port).
// name defaults to addr; give explicit names when addresses are
// ephemeral (port-0 tests) but identity must survive restarts.
func NewRemote(name, addr string) *Remote {
	if name == "" {
		name = addr
	}
	return &Remote{
		name: name,
		addr: addr,
		// Requests are small JSON exchanges; anything slower than this is
		// the health loop's problem, not a reason to hold a submit hostage.
		c: &http.Client{Timeout: 10 * time.Second},
	}
}

func (r *Remote) Name() string { return r.name }
func (r *Remote) Addr() string { return r.addr }

// RefusedError is a worker's well-formed rejection of a forwarded
// submission (any 4xx — tenant quota, AIMD shed, validation): the
// worker is healthy and said no. The coordinator must not declare the
// worker dead — a refusal replayed across the fleet would otherwise
// mark every healthy worker dead in turn. What happens to the group
// depends on Backpressure(): policy refusals shed it terminally,
// transient backpressure is retried.
type RefusedError struct {
	Status     int
	Cause      string // X-Quota-Cause when the refusal is a tenant quota
	Msg        string
	RetryAfter time.Duration // worker's Retry-After hint, 0 if absent
}

func (e *RefusedError) Error() string {
	if e.Cause != "" {
		return fmt.Sprintf("%s (quota cause %s)", e.Msg, e.Cause)
	}
	return e.Msg
}

// Backpressure reports whether the refusal is transient load shedding
// (a bare 429 from the AIMD gate or a full queue) rather than policy.
// A quota-caused 429 is policy — the tenant is over its configured
// limit, and replaying the demand elsewhere would evade enforcement —
// as is any other 4xx (validation, unknown tenant). Backpressure just
// means "not now": the coordinator already accepted the job at the
// edge, so it owes the client a retry, not a terminal failure.
func (e *RefusedError) Backpressure() bool {
	return e.Status == http.StatusTooManyRequests && e.Cause == ""
}

// apiError extracts the service's {"error": ...} body shape.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// send issues one request to the worker through c; the caller closes
// the response body.
func (r *Remote) send(ctx context.Context, c *http.Client, method, path string, body io.Reader, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://"+r.addr+path, body)
	if err != nil {
		return nil, err
	}
	maps.Copy(req.Header, hdr)
	return c.Do(req)
}

func (r *Remote) getJSON(ctx context.Context, path string, v any) error {
	resp, err := r.send(ctx, r.c, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (r *Remote) Submit(ctx context.Context, sreq service.SubmitRequest, idemKey string) (string, error) {
	body, err := json.Marshal(sreq)
	if err != nil {
		return "", err
	}
	resp, err := r.send(ctx, r.c, http.MethodPost, "/v1/jobs", bytes.NewReader(body),
		http.Header{"Content-Type": {"application/json"}, "Idempotency-Key": {idemKey}})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		err := apiError(resp)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			var ra time.Duration
			if n, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && n > 0 {
				ra = time.Duration(n) * time.Second
			}
			return "", &RefusedError{
				Status:     resp.StatusCode,
				Cause:      resp.Header.Get("X-Quota-Cause"),
				Msg:        err.Error(),
				RetryAfter: ra,
			}
		}
		return "", err
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (r *Remote) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := r.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Follow reads the worker's SSE stream for the job, resuming after
// since via Last-Event-ID (the service replays everything for -1). It
// uses a client without an overall timeout: the stream lives as long as
// the job, and ctx bounds it.
func (r *Remote) Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (string, error) {
	resp, err := r.send(ctx, http.DefaultClient, http.MethodGet, "/v1/jobs/"+id+"/events", nil,
		http.Header{"Last-Event-Id": {strconv.Itoa(since)}})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", fmt.Errorf("%w: %v", ErrJobNotFound, apiError(resp))
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiError(resp)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if e, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			event = e
			continue
		}
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		// The end event's {"job","state","error"} fills the same fields.
		var ev service.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if event == "end" {
			return ev.State, nil
		}
		onEvent(ev)
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

func (r *Remote) Result(ctx context.Context, id string) (service.JobResult, error) {
	var res service.JobResult
	err := r.getJSON(ctx, "/v1/jobs/"+id+"/result", &res)
	return res, err
}

func (r *Remote) Cancel(ctx context.Context, id string) error {
	resp, err := r.send(ctx, r.c, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return nil
}

func (r *Remote) Health(ctx context.Context) error {
	resp, err := r.send(ctx, r.c, http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	// A draining worker answers 503: alive as a process, but it must not
	// receive new work and its in-flight jobs will park checkpoints —
	// treat it like a dead member for routing purposes.
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (r *Remote) Stats(ctx context.Context) (service.Metrics, error) {
	var m service.Metrics
	err := r.getJSON(ctx, "/v1/stats", &m)
	return m, err
}
