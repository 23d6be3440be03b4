package cluster

// Coordinator logic tests against in-process fake workers: routing by
// ring ownership, stealing on telemetry divergence, migration off dead
// workers, cancellation fan-out and the cluster HTTP surface. The
// conformance and chaos tests against real worker services live in
// conformance_test.go.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
)

// fakeWorker is an in-process Worker that finishes every submitted cell
// instantly. Failure modes are scripted per instance.
type fakeWorker struct {
	name string

	mu        sync.Mutex
	stats     service.Metrics
	seq       int
	jobs      map[string]service.JobResult
	submitted int
	// tenants records each submission's forwarded tenant, in order.
	tenants   []string
	cancelled map[string]bool
	// dead makes every call after Submit fail, modelling a worker that
	// accepted work and then crashed.
	dead bool
	// refuseSubmit fails submissions outright.
	refuseSubmit bool
	// healthDelay makes Health slow (but still successful): the
	// slow-but-alive worker the probe-timeout regression test needs.
	healthDelay time.Duration
}

func newFakeWorker(name string) *fakeWorker {
	return &fakeWorker{name: name, jobs: make(map[string]service.JobResult), cancelled: make(map[string]bool)}
}

func (f *fakeWorker) Name() string { return f.name }
func (f *fakeWorker) Addr() string { return "fake:" + f.name }

func (f *fakeWorker) Submit(_ context.Context, req service.SubmitRequest, _ string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuseSubmit {
		return "", fmt.Errorf("%s: refusing submits", f.name)
	}
	f.submitted++
	f.tenants = append(f.tenants, req.Tenant)
	f.seq++
	id := fmt.Sprintf("%s-j%d", f.name, f.seq)
	res := service.JobResult{ID: id, State: service.JobDone}
	for i, sp := range req.Cells {
		res.Cells = append(res.Cells, service.CellResult{
			Index: i, Label: sp.Label(), State: service.CellDone, CPI: []float64{1},
		})
	}
	f.jobs[id] = res
	return id, nil
}

func (f *fakeWorker) Status(_ context.Context, id string) (service.JobStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return service.JobStatus{}, fmt.Errorf("%s: connection refused", f.name)
	}
	res, ok := f.jobs[id]
	if !ok {
		return service.JobStatus{}, fmt.Errorf("unknown job %s", id)
	}
	return service.JobStatus{ID: id, State: res.State}, nil
}

// Follow replays a finished job's history (its running transition) and
// returns its end state at once: the fake's jobs finish on submit.
func (f *fakeWorker) Follow(_ context.Context, id string, since int, onEvent func(service.Event)) (string, error) {
	f.mu.Lock()
	res, ok := f.jobs[id]
	dead := f.dead
	f.mu.Unlock()
	if dead {
		return "", fmt.Errorf("%s: connection refused", f.name)
	}
	if !ok {
		return "", fmt.Errorf("%w: %s", api.ErrJobNotFound, id)
	}
	if since < 0 {
		onEvent(service.Event{Seq: 0, Type: "job", Job: id, State: service.JobRunning})
	}
	return res.State, nil
}

func (f *fakeWorker) Result(_ context.Context, id string) (service.JobResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return service.JobResult{}, fmt.Errorf("%s: connection refused", f.name)
	}
	res, ok := f.jobs[id]
	if !ok {
		return service.JobResult{}, fmt.Errorf("unknown job %s", id)
	}
	return res, nil
}

func (f *fakeWorker) Cancel(_ context.Context, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancelled[id] = true
	return nil
}

func (f *fakeWorker) Health(ctx context.Context) error {
	f.mu.Lock()
	delay := f.healthDelay
	f.mu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return fmt.Errorf("%s: connection refused", f.name)
	}
	return nil
}

func (f *fakeWorker) Stats(context.Context) (service.Metrics, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return service.Metrics{}, fmt.Errorf("%s: connection refused", f.name)
	}
	return f.stats, nil
}

func (f *fakeWorker) setStats(m service.Metrics) {
	f.mu.Lock()
	f.stats = m
	f.mu.Unlock()
}

func (f *fakeWorker) die() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

// alive reports whether the coordinator's topology lists name as live.
func alive(c *Coordinator, name string) bool {
	for _, w := range c.Topology().Workers {
		if w.Name == name {
			return w.Alive
		}
	}
	return false
}

// fastCfg keeps coordinator control loops test-speed.
func fastCfg() Config {
	return Config{HealthInterval: 20 * time.Millisecond}
}

// specOwnedBy finds a valid stream cell whose label the ring assigns to
// owner, so routing tests can aim work at a specific worker.
func specOwnedBy(t *testing.T, vnodes int, owner string, nodes []string) service.CellSpec {
	t.Helper()
	r := NewRing(vnodes)
	for _, n := range nodes {
		r.Add(n)
	}
	for w := uint64(10000); w < 12000; w++ {
		sp := service.CellSpec{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}, Window: w}
		if r.Owner(sp.Label()) == owner {
			return sp
		}
	}
	t.Fatalf("no window in [10000,12000) hashes to %s", owner)
	return service.CellSpec{}
}

func waitJobDone(t *testing.T, j *service.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		state, msg := j.State()
		t.Fatalf("job %s never terminal (state %s %q)", j.ID, state, msg)
	}
}

func TestSubmitRoutesByRingOwner(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	a, b := newFakeWorker("a"), newFakeWorker("b")
	c.AddWorker(a)
	c.AddWorker(b)

	nodes := []string{"a", "b"}
	specA := specOwnedBy(t, 0, "a", nodes)
	specB := specOwnedBy(t, 0, "b", nodes)
	j, err := c.SubmitWith([]service.CellSpec{specA, specB}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done", state, msg)
	}
	if a.submitted != 1 || b.submitted != 1 {
		t.Fatalf("submissions a=%d b=%d, want 1 and 1 (one group per ring owner)", a.submitted, b.submitted)
	}
	for i, r := range j.Results() {
		if r.State != service.CellDone || len(r.CPI) != 1 {
			t.Fatalf("cell %d = %+v, want done with CPI", i, r)
		}
	}
	top := c.Topology()
	if top.CellsForwarded != 2 || top.Steals != 0 {
		t.Fatalf("forwarded %d steals %d, want 2 and 0", top.CellsForwarded, top.Steals)
	}
}

// An overloaded ring owner loses the group to the least-loaded worker
// when outstanding-job telemetry diverges past the steal margin.
func TestStealFromOverloadedOwner(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	busy, idle := newFakeWorker("busy"), newFakeWorker("idle")
	// The queue-wait EWMA corroborates what the outstanding counts say.
	busy.setStats(service.Metrics{JobsActive: 2, QueueDepth: 7, QueueWaitEWMASeconds: 3.5})
	c.AddWorker(busy)
	c.AddWorker(idle)

	sp := specOwnedBy(t, 0, "busy", []string{"busy", "idle"})
	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, _ := j.State(); state != service.JobDone {
		t.Fatalf("job = %s, want done", state)
	}
	if busy.submitted != 0 || idle.submitted != 1 {
		t.Fatalf("submissions busy=%d idle=%d, want the idle worker to steal the group", busy.submitted, idle.submitted)
	}
	if top := c.Topology(); top.Steals != 1 {
		t.Fatalf("Steals = %d, want 1", top.Steals)
	}
}

// Balanced telemetry must NOT steal: ring affinity wins so warm caches
// stay warm.
func TestNoStealWhenBalanced(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	a, b := newFakeWorker("a"), newFakeWorker("b")
	a.setStats(service.Metrics{JobsActive: 1})
	b.setStats(service.Metrics{JobsActive: 1})
	c.AddWorker(a)
	c.AddWorker(b)

	sp := specOwnedBy(t, 0, "a", []string{"a", "b"})
	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if a.submitted != 1 || b.submitted != 0 {
		t.Fatalf("submissions a=%d b=%d, want the ring owner to keep its group", a.submitted, b.submitted)
	}
	if top := c.Topology(); top.Steals != 0 {
		t.Fatalf("Steals = %d, want 0", top.Steals)
	}
}

// A worker that accepts a job and then stops answering loses the group:
// the coordinator migrates it to a survivor and the job still finishes.
func TestWorkerDeathMigratesGroup(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	dying, survivor := newFakeWorker("dying"), newFakeWorker("survivor")
	c.AddWorker(dying)
	c.AddWorker(survivor)

	sp := specOwnedBy(t, 0, "dying", []string{"dying", "survivor"})
	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The fake finishes instantly, so the submit has landed by the time
	// Submit returns; kill the worker under the coordinator's stream.
	dying.die()
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done after migration", state, msg)
	}
	if survivor.submitted != 1 {
		t.Fatalf("survivor submissions = %d, want 1", survivor.submitted)
	}
	top := c.Topology()
	if top.JobsRecovered < 1 || top.MigratedCells < 1 {
		t.Fatalf("recovered %d migrated %d, want >= 1", top.JobsRecovered, top.MigratedCells)
	}
	if top.WorkersLost < 1 {
		t.Fatalf("WorkersLost = %d, want >= 1", top.WorkersLost)
	}
}

// With every worker gone mid-job and none returning, the group fails
// with an explicit cause instead of hanging.
func TestDeathWithNoSurvivorFailsExplicitly(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	// A held worker cannot end the job before it dies: a plain fake
	// finishes the cell on submit, racing the death below.
	only := newHoldWorker("only")
	defer only.release()
	c.AddWorker(only)
	j, err := c.SubmitWith([]service.CellSpec{{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}}}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	only.die()
	waitJobDone(t, j)
	state, _ := j.State()
	if state != service.JobFailed {
		t.Fatalf("job = %s, want failed", state)
	}
	res := j.Results()[0]
	if res.State != service.CellFailed || !strings.Contains(res.Error, "no live workers") {
		t.Fatalf("cell = %s %q, want failed with a no-live-workers cause", res.State, res.Error)
	}
}

func TestSubmitWithNoWorkers(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	_, err := c.SubmitWith([]service.CellSpec{{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}}}, service.SubmitOptions{})
	if err != ErrNoWorkers {
		t.Fatalf("Submit on empty fleet = %v, want ErrNoWorkers", err)
	}
}

func TestSubmitValidatesLikeDaemon(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	c.AddWorker(newFakeWorker("a"))
	cases := []struct {
		specs []service.CellSpec
		want  string
	}{
		{nil, "empty batch"},
		{[]service.CellSpec{{Type: "bogus"}}, "unknown cell type"},
		{[]service.CellSpec{{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}, Observe: true}}, "no artifact directory"},
	}
	for _, tc := range cases {
		_, err := c.SubmitWith(tc.specs, service.SubmitOptions{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Submit = %v, want error containing %q", err, tc.want)
		}
	}
}

// Idempotent resubmission while the first job is live returns the same
// tracker instead of forwarding the batch twice.
func TestSubmitIdempotency(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	w := newFakeWorker("a")
	c.AddWorker(w)
	sp := service.CellSpec{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}}
	j1, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{IdemKey: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{IdemKey: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != j1.ID {
		// The first job may already be terminal (fakes are instant), in
		// which case a fresh job is correct; only a live duplicate is a bug.
		if state, _ := j1.State(); state == service.JobQueued || state == service.JobRunning {
			t.Fatalf("live job duplicated: %s then %s under one idempotency key", j1.ID, j2.ID)
		}
	}
	waitJobDone(t, j1)
	waitJobDone(t, j2)
}

func TestCancelFansOut(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	w := newFakeWorker("a")
	c.AddWorker(w)
	j, err := c.SubmitWith([]service.CellSpec{{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}}}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Cancel(j.ID) {
		t.Fatal("Cancel on known job = false")
	}
	if c.Cancel("c9999") {
		t.Fatal("Cancel on unknown job = true")
	}
	waitJobDone(t, j)
}

// The registration endpoint and topology view: a joining worker lands
// on the ring, /healthz flips with fleet liveness, and /metrics carries
// the cluster counters.
func TestClusterHTTPSurface(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// No workers: healthz 503, submit 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz on empty fleet = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"cells":[{"type":"stream","streams":[{"kind":"fadd"}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on empty fleet = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 submit carries no Retry-After")
	}

	// Register a (fake-backed) worker via the API the -join loop uses.
	w := newFakeWorker("w1")
	c.AddWorker(w)
	resp, err = http.Post(ts.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"name":"w1","addr":"127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var top Topology
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(top.Workers) != 1 || !top.Workers[0].Alive {
		t.Fatalf("register = %d %+v, want 200 with one live worker", resp.StatusCode, top)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with live worker = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"smtd_cluster_workers 1", "smtd_cluster_steals_total", "smtd_cluster_jobs_recovered_total"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if top.Live != 1 || top.Vnodes != DefaultVnodes {
		t.Fatalf("topology = %+v, want 1 live worker and default vnodes", top)
	}
}
