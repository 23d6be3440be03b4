package cluster

// Edge tests: the job API served by a single daemon and by a
// coordinator must be indistinguishable to a client. Each test sends
// the same requests to a real service.Service handler and to a
// Coordinator handler whose only worker is that same service.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smtexplore/internal/runner"
	"smtexplore/internal/service"
)

// holdTier is a result-cache tier that misses every lookup; while held
// it blocks each lookup until released, which keeps the job doing the
// lookup running and every job behind it queued.
type holdTier struct {
	held    atomic.Bool
	release chan struct{}
	once    sync.Once
}

func (h *holdTier) Load(string) ([]byte, bool) {
	if h.held.Load() {
		<-h.release
	}
	return nil, false
}

func (h *holdTier) Store(string, []byte) {}

func (h *holdTier) open() { h.once.Do(func() { close(h.release) }) }

// edgeSide is one job edge under test.
type edgeSide struct {
	name string
	url  string
	job  func(id string) (*service.Job, bool)
}

type edgePair struct {
	daemon, coord edgeSide
	tier          *holdTier
}

func (p *edgePair) sides() []edgeSide { return []edgeSide{p.daemon, p.coord} }

// newEdgePair starts a one-job-at-a-time daemon and a coordinator
// fronting it.
func newEdgePair(t *testing.T) *edgePair {
	t.Helper()
	tier := &holdTier{release: make(chan struct{})}
	svc := service.New(service.Config{Workers: 1, MaxActive: 1, Cache: runner.NewCache().WithTier(tier)})
	dsrv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		dsrv.Close()
		svc.Close()
	})
	c := New(fastCfg())
	c.AddWorker(NewRemote("w1", strings.TrimPrefix(dsrv.URL, "http://")))
	csrv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		csrv.Close()
		c.Close()
	})
	// Runs first: nothing may stay blocked in the tier at shutdown.
	t.Cleanup(tier.open)
	return &edgePair{
		daemon: edgeSide{name: "daemon", url: dsrv.URL, job: svc.Job},
		coord:  edgeSide{name: "coordinator", url: csrv.URL, job: c.Job},
		tier:   tier,
	}
}

// streamCell is a small valid stream cell; distinct windows are
// distinct cache keys.
func streamCell(window int) string {
	return fmt.Sprintf(`{"type":"stream","streams":[{"kind":"fadd"}],"window":%d}`, window)
}

func (s edgeSide) submit(t *testing.T, cell string) string {
	t.Helper()
	resp, err := http.Post(s.url+"/v1/jobs", "application/json", strings.NewReader(`{"cells":[`+cell+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%s submit: %d %v", s.name, resp.StatusCode, err)
	}
	return st.ID
}

// waitJob waits for the job to reach state.
func (s edgeSide) waitJob(t *testing.T, id, state string) {
	t.Helper()
	j, ok := s.job(id)
	if !ok {
		t.Fatalf("%s: no job %s", s.name, id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := j.State()
		if got == state {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s job %s is %s, want %s", s.name, id, got, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// edgeShape is what a client can observe of one response, minus the
// values that legitimately differ (job IDs, timestamps, message text).
type edgeShape struct {
	Code       int
	CType      string
	RetryAfter bool
	QuotaCause bool
	Body       string // sorted top-level JSON keys, or "text"
}

// shapeOf reads a response into its shape and, for an {"error": ...}
// body, the error text.
func shapeOf(t *testing.T, resp *http.Response) (edgeShape, string) {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sh := edgeShape{
		Code:       resp.StatusCode,
		CType:      resp.Header.Get("Content-Type"),
		RetryAfter: resp.Header.Get("Retry-After") != "",
		QuotaCause: resp.Header.Get("X-Quota-Cause") != "",
		Body:       "text",
	}
	var text string
	if strings.HasPrefix(sh.CType, "application/json") {
		var obj map[string]any
		if err := json.Unmarshal(raw, &obj); err != nil {
			t.Fatalf("JSON body %q: %v", raw, err)
		}
		if msg, ok := obj["error"]; ok {
			if text, _ = msg.(string); len(obj) != 1 || text == "" {
				t.Fatalf("error body %q is not {\"error\": \"...\"}", raw)
			}
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sh.Body = strings.Join(keys, ",")
	}
	return sh, text
}

// Every client-visible property of a response — status, Content-Type,
// Retry-After and X-Quota-Cause presence, and the {"error": ...} body
// shape — is the same from a daemon and from a coordinator. A refused
// submission (empty batch, bad cell, invalid tenant) reads the same
// error text on both.
func TestEdgeParity(t *testing.T) {
	p := newEdgePair(t)

	// A finished job on each side, then a running one behind the held tier.
	done := map[string]string{}
	for _, s := range p.sides() {
		done[s.name] = s.submit(t, streamCell(2000))
		s.waitJob(t, done[s.name], service.JobDone)
	}
	p.tier.held.Store(true)
	running := map[string]string{}
	for i, s := range p.sides() {
		running[s.name] = s.submit(t, streamCell(2001+i))
		s.waitJob(t, running[s.name], service.JobRunning)
	}

	cases := []struct {
		name, method, path, body string
		header                   map[string]string
		want                     int
		sameText                 bool
	}{
		{"bad JSON body", "POST", "/v1/jobs", `{"cells":`, nil, 400, false},
		{"bad deadline", "POST", "/v1/jobs", `{"cells":[` + streamCell(2010) + `],"deadline":"soon"}`, nil, 400, false},
		{"empty batch", "POST", "/v1/jobs", `{"cells":[]}`, nil, 400, true},
		{"bad cell", "POST", "/v1/jobs", `{"cells":[` + streamCell(2012) + `,{"type":"stream","streams":[{"kind":"nope"}]}]}`, nil, 400, true},
		{"invalid tenant", "POST", "/v1/jobs", `{"cells":[` + streamCell(2011) + `]}`, map[string]string{"X-Tenant": "no spaces allowed"}, 400, true},
		{"unknown job status", "GET", "/v1/jobs/nope", "", nil, 404, false},
		{"unknown job cancel", "DELETE", "/v1/jobs/nope", "", nil, 404, false},
		{"unknown job events", "GET", "/v1/jobs/nope/events", "", nil, 404, false},
		{"unknown job result", "GET", "/v1/jobs/nope/result", "", nil, 404, false},
		{"result while running", "GET", "/v1/jobs/{running}/result", "", nil, 409, false},
		{"cell index not a number", "GET", "/v1/jobs/{done}/cells/x/result", "", nil, 404, false},
		{"cell index out of range", "GET", "/v1/jobs/{done}/cells/7/result", "", nil, 404, false},
		{"cell result", "GET", "/v1/jobs/{done}/cells/0/result", "", nil, 200, false},
		{"status", "GET", "/v1/jobs/{done}", "", nil, 200, false},
		{"list", "GET", "/v1/jobs", "", nil, 200, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var shapes []edgeShape
			var texts []string
			for _, s := range p.sides() {
				path := strings.NewReplacer("{done}", done[s.name], "{running}", running[s.name]).Replace(tc.path)
				req, err := http.NewRequest(tc.method, s.url+path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range tc.header {
					req.Header.Set(k, v)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				sh, text := shapeOf(t, resp)
				if sh.Code != tc.want {
					t.Errorf("%s: status %d, want %d", s.name, sh.Code, tc.want)
				}
				shapes = append(shapes, sh)
				texts = append(texts, text)
			}
			if shapes[0] != shapes[1] {
				t.Errorf("daemon %+v != coordinator %+v", shapes[0], shapes[1])
			}
			if tc.sameText && texts[0] != texts[1] {
				t.Errorf("error text: daemon %q != coordinator %q", texts[0], texts[1])
			}
		})
	}
}

// A client following a job that has not started yet gets the SSE
// headers at once, not when the first event arrives: otherwise a
// follower cannot tell a queued job from a slow or dead server.
func TestEdgeEventsFlushHeadersWhileQueued(t *testing.T) {
	p := newEdgePair(t)
	p.tier.held.Store(true)
	p.daemon.waitJob(t, p.daemon.submit(t, streamCell(3000)), service.JobRunning)

	for i, s := range p.sides() {
		t.Run(s.name, func(t *testing.T) {
			id := s.submit(t, streamCell(3001+i))
			if s.name == p.daemon.name {
				s.waitJob(t, id, service.JobQueued)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/jobs/"+id+"/events", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("events of a queued job: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
				t.Fatalf("events: %d %q, want 200 text/event-stream", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
		})
	}
}

// The coordinator's retry-soon refusals reach the shared edge's 503 +
// Retry-After: 1 branch through service.ErrUnavailable, wrapped or not,
// and keep their text.
func TestEdgeUnavailableErrors(t *testing.T) {
	for err, text := range map[error]string{
		ErrNoWorkers:       "cluster: no live workers",
		ErrLeaseLost:       "cluster: leadership lease lost",
		service.ErrJournal: "service: journal write failed",
	} {
		if err.Error() != text {
			t.Errorf("error text %q, want %q", err, text)
		}
		for _, e := range []error{err, fmt.Errorf("%w: detail", err)} {
			if !errors.Is(e, service.ErrUnavailable) || !errors.Is(e, err) {
				t.Errorf("%v: errors.Is(ErrUnavailable) = %v, errors.Is(itself) = %v", e, errors.Is(e, service.ErrUnavailable), errors.Is(e, err))
			}
		}
	}
	if errors.Is(service.ErrDraining, service.ErrUnavailable) {
		t.Error("ErrDraining must stay a plain 503 without Retry-After")
	}
}
