package api

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

// Client speaks the smtd job API to one server set — a daemon, a
// cluster coordinator or an HA coordinator pair; they serve the same
// routes. Every request goes through the endpoint picker and a retrier,
// so a failover costs latency rather than a failed call. Safe for
// concurrent use.
type Client struct {
	eps   *Endpoints
	hc    *http.Client // requests; streams use a client without a timeout
	retry *retrier
}

// NewClient builds a client over eps. retries is the budget of retries
// after a transient failure (0: none). timeout bounds each request,
// headers and body (0: none); an event stream is bounded by its ctx
// only. retryShed makes a 429 transient: smtctl waits out backpressure,
// while for a load generator a 429 is the shed it measures and for a
// coordinator the refusal its placement reads.
func NewClient(eps *Endpoints, retries int, timeout time.Duration, retryShed bool) *Client {
	return &Client{eps: eps, hc: &http.Client{Timeout: timeout}, retry: newRetrier(retries, retryShed)}
}

// Addr is the server the next request goes to.
func (c *Client) Addr() string { return c.eps.Addr() }

// ErrJobNotFound reports a job the server does not know (for a worker,
// a restart without a journal: the group must be placed afresh).
var ErrJobNotFound = errors.New("api: job not found")

// RefusedError is a well-formed rejection of a submission (any 4xx —
// tenant quota, AIMD shed, validation): the server is healthy and said
// no. A coordinator must not declare such a worker dead — a refusal
// replayed across the fleet would otherwise mark every healthy worker
// dead in turn. What happens to the work depends on Backpressure():
// policy refusals shed it terminally, transient backpressure is retried.
type RefusedError struct {
	Status     int
	Cause      string // X-Quota-Cause when the refusal is a tenant quota
	Msg        string
	RetryAfter time.Duration // server's Retry-After hint, 0 if absent
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
// means "not now": a coordinator already accepted the job at the edge,
// so it owes the client a retry, not a terminal failure.
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

// send issues one request through the retrier, building it afresh for
// each attempt against the picker's current endpoint and letting the
// picker see every outcome, so the next attempt lands on the next
// server or the advertised leader. The caller closes the body.
func (c *Client) send(ctx context.Context, hc *http.Client, method, path string, body []byte, hdr http.Header) (*http.Response, error) {
	return c.retry.do(ctx, method+" "+path, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, method, c.eps.Base()+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		maps.Copy(req.Header, hdr)
		resp, err := hc.Do(req)
		c.eps.Observe(resp, err)
		return resp, err
	})
}

// do sends a request and decodes a want-status response into out (nil:
// discard); any other status is the server's error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int, out any) error {
	var hdr http.Header
	if body != nil {
		hdr = http.Header{"Content-Type": {"application/json"}}
	}
	resp, err := c.send(ctx, c.hc, method, path, body, hdr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return apiError(resp)
	}
	if out == nil {
		// Drain, so the connection goes back to the pool.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// GetJSON decodes a 200 response to GET path into v — the routes
// outside the job API, such as /v1/cluster.
func (c *Client) GetJSON(ctx context.Context, path string, v any) error {
	return c.do(ctx, http.MethodGet, path, nil, http.StatusOK, v)
}

// PostJSON posts a JSON body to path and expects a 200.
func (c *Client) PostJSON(ctx context.Context, path string, body []byte) error {
	return c.do(ctx, http.MethodPost, path, body, http.StatusOK, nil)
}

// Submit enqueues a batch and returns the job ID. idemKey guards
// against a double enqueue when a 202 is lost and the submit retried.
// A 4xx comes back as a *RefusedError.
func (c *Client) Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := c.send(ctx, c.hc, http.MethodPost, "/v1/jobs", body,
		http.Header{"Content-Type": {"application/json"}, "Idempotency-Key": {idemKey}})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		err := apiError(resp)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return "", &RefusedError{
				Status:     resp.StatusCode,
				Cause:      resp.Header.Get("X-Quota-Cause"),
				Msg:        err.Error(),
				RetryAfter: retryAfter(resp),
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

// Status fetches a job's progress view.
func (c *Client) Status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.GetJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Result fetches a terminal job's full results.
func (c *Client) Result(ctx context.Context, id string) (service.JobResult, error) {
	var res service.JobResult
	err := c.GetJSON(ctx, "/v1/jobs/"+id+"/result", &res)
	return res, err
}

// CellResult fetches one cell's result of a job.
func (c *Client) CellResult(ctx context.Context, id string, cell int) (service.CellResult, error) {
	var res service.CellResult
	err := c.GetJSON(ctx, fmt.Sprintf("/v1/jobs/%s/cells/%d/result", id, cell), &res)
	return res, err
}

// Cancel aborts a job (idempotent server-side) and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, http.StatusOK, &st)
	return st, err
}

// Health probes liveness: nil on a serving server. A draining daemon
// answers 503 — alive as a process, but it must not receive new work.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK, nil)
}

// Stats fetches the server's structured metrics snapshot.
func (c *Client) Stats(ctx context.Context) (service.Metrics, error) {
	var m service.Metrics
	err := c.GetJSON(ctx, "/v1/stats", &m)
	return m, err
}

// Follow reads a job's SSE stream: it calls onEvent for each event
// after seq since (-1: the whole history, replayed first) and returns
// the end event, whose State and Error are the job's terminal state
// and cause. An error means the stream broke first — resume from the
// last seq seen — or, wrapping ErrJobNotFound, that the server does not
// know the job. Only ctx bounds the stream: it lives as long as the job.
func (c *Client) Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (service.Event, error) {
	var end service.Event
	resp, err := c.send(ctx, http.DefaultClient, http.MethodGet, "/v1/jobs/"+id+"/events", nil,
		http.Header{"Last-Event-Id": {strconv.Itoa(since)}})
	if err != nil {
		return end, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return end, fmt.Errorf("%w: %v", ErrJobNotFound, apiError(resp))
	default:
		return end, apiError(resp)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
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
			return end, fmt.Errorf("bad %s event: %w", event, err)
		}
		if event == "end" {
			return ev, nil
		}
		onEvent(ev)
	}
	if err := sc.Err(); err != nil {
		return end, err
	}
	return end, io.ErrUnexpectedEOF
}
