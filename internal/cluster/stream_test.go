package cluster

// Progress-stream tests: the coordinator follows each remote job's
// event stream instead of polling it, so a cancel, a dropped stream, a
// hung worker and an HA adoption must each be handled the moment they
// happen.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// A client cancel reaches a held remote job at once: with no background
// loop ticking during the test, the job concludes cancelled only if the
// cancel travels on its own.
func TestStreamCancelReachesHeldWorker(t *testing.T) {
	c := New(Config{HealthInterval: time.Hour})
	defer c.Close()
	hw := newHoldWorker("a")
	defer hw.release()
	c.AddWorker(hw)

	j, err := c.SubmitWith([]service.CellSpec{adoptSpec()}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Cancel(j.ID)
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled job still live: the cancel never reached the worker")
	}
	if state, _ := j.State(); state != service.JobCancelled {
		t.Fatalf("job = %s, want cancelled", state)
	}
	if got := j.Results()[0].State; got != service.CellCancelled {
		t.Fatalf("cell = %s, want cancelled", got)
	}
	hw.mu.Lock()
	defer hw.mu.Unlock()
	if len(hw.cancelled) != 1 || hw.submitted != 1 {
		t.Fatalf("worker saw %d cancels for %d submits, want 1 and 1", len(hw.cancelled), hw.submitted)
	}
}

// dropFirstStream fronts a worker: it counts submissions, records the
// Last-Event-ID of every events request, and cuts the first stream
// right after its first event.
type dropFirstStream struct {
	h       http.Handler
	mu      sync.Mutex
	submits int
	resumes []string
}

func (d *dropFirstStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		d.mu.Lock()
		d.submits++
		d.mu.Unlock()
	case strings.HasSuffix(r.URL.Path, "/events"):
		d.mu.Lock()
		d.resumes = append(d.resumes, r.Header.Get("Last-Event-ID"))
		first := len(d.resumes) == 1
		d.mu.Unlock()
		if first {
			ctx, cut := context.WithCancel(r.Context())
			defer cut()
			w = &cutAfterFrame{ResponseWriter: w, cut: cut}
			r = r.WithContext(ctx)
		}
	}
	d.h.ServeHTTP(w, r)
}

// cutAfterFrame passes one SSE frame through, then drops the stream:
// later writes are discarded and the handler's context ends, so the
// response closes without an end event.
type cutAfterFrame struct {
	http.ResponseWriter
	cut     func()
	dropped bool
}

func (c *cutAfterFrame) Write(p []byte) (int, error) {
	if c.dropped {
		return 0, errors.New("stream dropped")
	}
	n, err := c.ResponseWriter.Write(p)
	if bytes.HasSuffix(p, []byte("\n\n")) {
		c.dropped = true
		c.cut()
	}
	return n, err
}

func (c *cutAfterFrame) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// A stream dropped mid-job is re-dialled from the last event seen: the
// job is submitted once and its results are the worker's, byte for
// byte.
func TestStreamDropResumesFromLastSeq(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, MaxActive: 1})
	defer svc.Close()
	front := &dropFirstStream{h: svc.Handler()}
	ts := httptest.NewServer(front)
	defer ts.Close()
	c := New(fastCfg())
	defer c.Close()
	c.AddWorker(NewRemote("w", strings.TrimPrefix(ts.URL, "http://")))

	spec := service.CellSpec{Type: service.TypeStream, Window: 40000,
		Streams: []service.StreamSpec{{Kind: "fadd"}, {Kind: "iload"}}}
	j, err := c.SubmitWith([]service.CellSpec{spec}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done", state, msg)
	}
	front.mu.Lock()
	submits, resumes := front.submits, append([]string(nil), front.resumes...)
	front.mu.Unlock()
	if submits != 1 {
		t.Fatalf("%d submits, want 1: a dropped stream must not re-forward the job", submits)
	}
	// -1: nothing seen yet, replay everything; 0: resume after event 0.
	if len(resumes) < 2 || resumes[0] != "-1" || resumes[1] != "0" {
		t.Fatalf("events requests carried Last-Event-ID %q, want [-1 0 ...]", resumes)
	}
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("worker ran %d jobs, want 1", len(jobs))
	}
	got, _ := json.Marshal(j.Results())
	want, _ := json.Marshal(jobs[0].Results())
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator results differ from the worker's:\n got %s\nwant %s", got, want)
	}
}

// hangWorker accepts a job, then its stream hangs and its health probes
// fail: only the eviction can end the stream.
type hangWorker struct {
	*fakeWorker
	exited chan error
}

func (h *hangWorker) Follow(ctx context.Context, _ string, _ int, _ func(service.Event)) (string, error) {
	h.die()
	<-ctx.Done()
	h.exited <- ctx.Err()
	return "", ctx.Err()
}

// A worker whose stream hangs and whose probes fail is evicted, the
// eviction closes the hung stream, and the group migrates.
func TestStreamHungWorkerEvicted(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	hung := &hangWorker{fakeWorker: newFakeWorker("hung"), exited: make(chan error, 8)}
	survivor := newFakeWorker("survivor")
	c.AddWorker(hung)
	c.AddWorker(survivor)

	sp := specOwnedBy(t, 0, "hung", []string{"hung", "survivor"})
	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done after migration", state, msg)
	}
	select {
	case err := <-hung.exited:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("hung stream ended with %v, want context.Canceled from the eviction", err)
		}
	default:
		t.Fatal("the hung stream outlived the eviction")
	}
	if hung.submitted != 1 || survivor.submitted != 1 {
		t.Fatalf("submissions hung=%d survivor=%d, want 1 and 1", hung.submitted, survivor.submitted)
	}
	if top := c.Topology(); top.WorkersLost < 1 || top.JobsRecovered < 1 {
		t.Fatalf("lost %d recovered %d, want >= 1", top.WorkersLost, top.JobsRecovered)
	}
}

// An adopted group resubscribes to its remote job, and the replayed
// history ends the failover window while that job is still running.
func TestStreamAdoptedGroupForwardsOnOpen(t *testing.T) {
	dir := t.TempDir()
	spec := adoptSpec()
	seedJournal(t, dir, spec, true)
	hw := newHoldWorker("w1")
	defer hw.release()
	hw.jobs["w1-j1"] = service.JobResult{ID: "w1-j1", State: service.JobDone,
		Cells: []service.CellResult{{Index: 0, Label: spec.Label(), State: service.CellDone, CPI: []float64{1}}}}

	forwarded := make(chan struct{})
	cfg := fastCfg()
	cfg.Dial = func(string, string) Worker { return hw }
	cfg.OnForward = func() { close(forwarded) }
	c := New(cfg)
	defer c.Close()
	st, _, err := LoadRoutingState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Adopt(st)

	select {
	case <-forwarded:
	case <-time.After(5 * time.Second):
		t.Fatal("OnForward never fired for the adopted group")
	}
	j, ok := c.Job("c0007")
	if !ok {
		t.Fatal("adopted job not resolvable")
	}
	if state, _ := j.State(); state != service.JobRunning {
		t.Fatalf("adopted job = %s at stream open, want running", state)
	}
	hw.release()
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("adopted job = %s %q, want done", state, msg)
	}
	hw.mu.Lock()
	defer hw.mu.Unlock()
	if hw.submitted != 0 {
		t.Fatalf("adoption re-forwarded the group (%d submits), want 0", hw.submitted)
	}
}
