package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	s := stubService(Config{}, instantDone)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec(), validSpec()}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	st := decodeBody[JobStatus](t, resp)
	if st.ID == "" || len(st.Cells) != 2 {
		t.Fatalf("submit response %+v", st)
	}

	j, ok := s.Job(st.ID)
	if !ok {
		t.Fatal("submitted job not in registry")
	}
	waitDone(t, j)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[JobStatus](t, resp)
	if got.State != JobDone || got.Counts["done"] != 2 {
		t.Fatalf("status %+v, want done with 2 done cells", got)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decodeBody[JobResult](t, resp)
	if res.State != JobDone || len(res.Cells) != 2 || res.Cells[0].CPI == nil {
		t.Fatalf("result %+v", res)
	}

	// List includes the job; unknown IDs 404.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[map[string][]JobStatus](t, resp)
	if len(list["jobs"]) != 1 {
		t.Errorf("list has %d jobs, want 1", len(list["jobs"]))
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/j9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPResultConflictWhileRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := stubService(Config{}, func(ctx context.Context, spec CellSpec, _ string) CellResult {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return CellResult{Label: spec.Label(), State: CellDone}
	})
	defer s.Close()
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}}))
	<-started
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: status %d, want 409", resp.StatusCode)
	}
}

func TestHTTPBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := stubService(Config{MaxActive: 1, QueueDepth: 1}, func(ctx context.Context, spec CellSpec, _ string) CellResult {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return CellResult{Label: spec.Label(), State: CellDone}
	})
	defer s.Close()
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}}).Body.Close()
	<-started
	postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}}).Body.Close()

	resp := postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After header")
	}
}

func TestHTTPCancel(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := stubService(Config{MaxActive: 1}, func(ctx context.Context, spec CellSpec, _ string) CellResult {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return CellResult{Label: spec.Label(), State: CellDone}
	})
	defer s.Close()
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}}).Body.Close()
	<-started
	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec()}}))

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeBody[JobStatus](t, resp)
	if got.State != JobCancelled {
		t.Fatalf("cancelled queued job state %q", got.State)
	}

	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/j9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job status %d, want 404", resp.StatusCode)
	}
}

// readSSE consumes a Server-Sent Events body into (event, data) pairs
// until the stream ends.
func readSSE(t *testing.T, body io.Reader) [][2]string {
	t.Helper()
	var out [][2]string
	var event, data string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event != "" || data != "" {
				out = append(out, [2]string{event, data})
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPEventsSSE(t *testing.T) {
	s := stubService(Config{Workers: 1}, instantDone)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{validSpec(), validSpec()}}))
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	var cells int
	for _, ev := range events[:len(events)-1] {
		if ev[0] == "cell" {
			cells++
		}
	}
	if cells != 2 {
		t.Errorf("%d cell events, want 2", cells)
	}
	last := events[len(events)-1]
	if last[0] != "end" {
		t.Fatalf("last event %q, want end", last[0])
	}
	var end struct{ Job, State, Error string }
	if err := json.Unmarshal([]byte(last[1]), &end); err != nil {
		t.Fatal(err)
	}
	if end.State != JobDone || end.Job != st.ID {
		t.Errorf("end event %+v, want done for %s", end, st.ID)
	}
}

// The SSE stream of a failing job must end with state "failed" and the
// per-cell error must have been streamed — the contract smtctl wait
// relies on to exit non-zero.
func TestHTTPEventsSSEFailure(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	bad := CellSpec{Type: TypeStream, Window: 2000,
		Streams: []StreamSpec{{Kind: "fadd"}, {Kind: "fadd"}, {Kind: "fadd"}}}
	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{bad}}))
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp.Body)
	last := events[len(events)-1]
	if last[0] != "end" || !strings.Contains(last[1], `"state":"failed"`) {
		t.Fatalf("end event %v, want failed", last)
	}
	var sawError bool
	for _, ev := range events {
		if ev[0] == "cell" && strings.Contains(ev[1], "3 streams") {
			sawError = true
		}
	}
	if !sawError {
		t.Error("cell failure event with the stream-count error never streamed")
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	s := stubService(Config{}, instantDone)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"smtd_jobs_total{state=\"done\"}",
		"smtd_queue_capacity",
		"smtd_cache_hits_total",
		"smtd_cells_simulated_total",
		"smtd_uptime_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Draining flips healthz to 503.
	go s.Drain(context.Background())
	deadline := time.After(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("healthz never turned 503 during drain")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// An observed stream cell produces artifacts that the artifact endpoint
// serves; unlisted names 404 (no path traversal via the name segment).
func TestHTTPObservedCellArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real observed simulation; skipped in -short")
	}
	dir := t.TempDir()
	s := New(Config{Workers: 1, ArtifactDir: dir})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}, Window: 2000, Observe: true}
	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{Cells: []CellSpec{spec}}))
	j, _ := s.Job(st.ID)
	waitDone(t, j)
	if state, msg := j.State(); state != JobDone {
		t.Fatalf("job %s: %s", state, msg)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/cells/0/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decodeBody[CellResult](t, resp)
	if len(res.Artifacts) != 3 {
		t.Fatalf("artifacts %v, want 3", res.Artifacts)
	}
	for _, name := range res.Artifacts {
		if _, err := os.Stat(filepath.Join(dir, st.ID, "cell-0", name)); err != nil {
			t.Errorf("artifact %s not on disk: %v", name, err)
		}
		aresp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/cells/0/artifacts/%s", srv.URL, st.ID, name))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(aresp.Body)
		aresp.Body.Close()
		if aresp.StatusCode != http.StatusOK || len(data) == 0 {
			t.Errorf("artifact %s: status %d, %d bytes", name, aresp.StatusCode, len(data))
		}
	}
	aresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/cells/0/artifacts/no-such-file")
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusNotFound {
		t.Errorf("unlisted artifact: status %d, want 404", aresp.StatusCode)
	}
}
