package cluster

// Cluster-edge tenancy tests: the coordinator forwards tenants to
// workers, enforces fleet-wide quotas with the daemon's cause taxonomy,
// and never treats a worker's 4xx refusal as a death — policy refusals
// (quota, validation) shed the group terminally, bare-429 backpressure
// is retried and routed around.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
	"smtexplore/internal/tenant"
)

func TestTenantForwardedToWorker(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	a := newFakeWorker("a")
	c.AddWorker(a)

	sp := specOwnedBy(t, 0, "a", []string{"a"})
	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	j2, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j2)

	a.mu.Lock()
	got := append([]string(nil), a.tenants...)
	a.mu.Unlock()
	if len(got) != 2 || got[0] != "alice" || got[1] != tenant.Default {
		t.Fatalf("forwarded tenants = %v, want [alice %s]", got, tenant.Default)
	}
	if j.Tenant != "alice" || j2.Tenant != tenant.Default {
		t.Fatalf("tracker tenants = %q, %q", j.Tenant, j2.Tenant)
	}
}

// holdWorker keeps remote jobs running until released: its Follow
// blocks until release(), a Cancel of that job, or the end of the
// stream's context, so tests can pin coordinator jobs in flight
// deterministically.
type holdWorker struct {
	*fakeWorker
	released chan struct{}
	once     sync.Once
	// stops holds one channel per remote job, closed by its Cancel.
	stops map[string]chan struct{}
}

func newHoldWorker(name string) *holdWorker {
	return &holdWorker{fakeWorker: newFakeWorker(name), released: make(chan struct{}), stops: make(map[string]chan struct{})}
}

// stopLocked returns the job's cancel channel. Callers hold h.mu.
func (h *holdWorker) stopLocked(id string) chan struct{} {
	ch, ok := h.stops[id]
	if !ok {
		ch = make(chan struct{})
		h.stops[id] = ch
	}
	return ch
}

func (h *holdWorker) Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (string, error) {
	h.mu.Lock()
	stop := h.stopLocked(id)
	h.mu.Unlock()
	if since < 0 {
		onEvent(service.Event{Seq: 0, Type: "job", Job: id, State: service.JobRunning})
	}
	select {
	case <-h.released:
	case <-stop:
	case <-ctx.Done():
		return "", ctx.Err()
	}
	return h.fakeWorker.Follow(ctx, id, 0, nil)
}

// Cancel ends a held job as cancelled, the way a worker cancels a
// running job; a released (finished) job ignores it.
func (h *holdWorker) Cancel(ctx context.Context, id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cancelled[id] = true
	select {
	case <-h.released:
		return nil
	default:
	}
	if res, ok := h.jobs[id]; ok && res.State == service.JobDone {
		res.State = service.JobCancelled
		for i := range res.Cells {
			res.Cells[i] = service.CellResult{Index: i, Label: res.Cells[i].Label, State: service.CellCancelled, Error: "cancelled"}
		}
		h.jobs[id] = res
		close(h.stopLocked(id))
	}
	return nil
}

func (h *holdWorker) release() { h.once.Do(func() { close(h.released) }) }

func TestCoordinatorQuotas(t *testing.T) {
	cfg := fastCfg()
	cfg.Tenants = tenant.NewRegistry(map[string]tenant.Config{
		"capped": {MaxQueuedJobs: 1, MaxActiveCells: 2},
	})
	c := New(cfg)
	defer c.Close()
	hw := newHoldWorker("a")
	c.AddWorker(hw)
	sp := specOwnedBy(t, 0, "a", []string{"a"})

	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	// One job in flight: the jobs quota refuses a second.
	_, err = c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "capped"})
	var qe *service.QuotaError
	if !errors.As(err, &qe) || qe.Cause != service.QuotaQueuedJobs {
		t.Fatalf("second submit: err=%v, want QuotaError(%s)", err, service.QuotaQueuedJobs)
	}
	// Other tenants are unaffected.
	if _, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "free"}); err != nil {
		t.Fatalf("unrelated tenant refused: %v", err)
	}
	// Release: the quota frees when the job concludes.
	hw.release()
	waitJobDone(t, j)
	j3, err := c.SubmitWith([]service.CellSpec{sp, sp, sp}, service.SubmitOptions{Tenant: "capped"})
	if !errors.As(err, &qe) || qe.Cause != service.QuotaActiveCells {
		t.Fatalf("3-cell batch: err=%v (job=%v), want QuotaError(%s)", err, j3, service.QuotaActiveCells)
	}
	j4, err := c.SubmitWith([]service.CellSpec{sp, sp}, service.SubmitOptions{Tenant: "capped"})
	if err != nil {
		t.Fatalf("2-cell batch after release refused: %v", err)
	}
	waitJobDone(t, j4)
}

// refuseWorker models a healthy worker whose admission says no (a
// tenant quota or AIMD shed on the worker side).
type refuseWorker struct {
	*fakeWorker
}

func (r *refuseWorker) Submit(context.Context, service.SubmitRequest, string) (string, error) {
	return "", &api.RefusedError{Status: http.StatusTooManyRequests, Cause: service.QuotaQueuedJobs, Msg: "429: over quota"}
}

func TestWorkerRefusalShedsGroupNotWorker(t *testing.T) {
	c := New(fastCfg())
	defer c.Close()
	rw := &refuseWorker{fakeWorker: newFakeWorker("a")}
	c.AddWorker(rw)
	sp := specOwnedBy(t, 0, "a", []string{"a"})

	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "anyone"})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	state, msg := j.State()
	if state != service.JobFailed || !strings.Contains(msg, service.QuotaQueuedJobs) {
		t.Fatalf("job = %s %q, want failed with the quota cause in the message", state, msg)
	}
	if !alive(c, "a") {
		t.Fatal("healthy worker marked dead after refusing a submission")
	}
	if top := c.Topology(); top.WorkersLost != 0 {
		t.Fatalf("workers lost = %d, want 0", top.WorkersLost)
	}
}

// backpressureWorker sheds its first n submits with a bare 429 (AIMD
// gate / full queue — no quota cause), then accepts: a healthy worker
// that is momentarily too busy.
type backpressureWorker struct {
	*fakeWorker
	mu   sync.Mutex
	shed int
}

func (b *backpressureWorker) Submit(ctx context.Context, req service.SubmitRequest, key string) (string, error) {
	b.mu.Lock()
	shed := b.shed > 0
	if shed {
		b.shed--
	}
	b.mu.Unlock()
	if shed {
		return "", &api.RefusedError{Status: http.StatusTooManyRequests, Msg: "429: shed", RetryAfter: time.Millisecond}
	}
	return b.fakeWorker.Submit(ctx, req, key)
}

func TestBackpressureRetriedNotFailed(t *testing.T) {
	// A bare 429 is "not now", not "never": the coordinator accepted the
	// job at the edge, so a congested worker must cost latency only. Four
	// sheds span the in-place retry budget, forcing a route-around pass
	// before the worker accepts.
	c := New(fastCfg())
	defer c.Close()
	bw := &backpressureWorker{fakeWorker: newFakeWorker("a"), shed: 4}
	c.AddWorker(bw)
	sp := specOwnedBy(t, 0, "a", []string{"a"})

	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "anyone"})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done despite transient backpressure", state, msg)
	}
	if !alive(c, "a") {
		t.Fatal("busy worker marked dead after shedding load")
	}
	top := c.Topology()
	if top.WorkersLost != 0 || top.JobsRecovered != 0 {
		t.Fatalf("workers lost = %d, jobs recovered = %d, want 0/0: backpressure is routing, not failure recovery",
			top.WorkersLost, top.JobsRecovered)
	}
}

func TestBackpressureBudgetBounded(t *testing.T) {
	// A worker that never stops shedding must not pin the group forever:
	// the migration budget still bounds the retries, and the job fails
	// with the budget message — without the worker ever being marked dead.
	c := New(fastCfg())
	defer c.Close()
	bw := &backpressureWorker{fakeWorker: newFakeWorker("a"), shed: 1 << 30}
	c.AddWorker(bw)
	sp := specOwnedBy(t, 0, "a", []string{"a"})

	j, err := c.SubmitWith([]service.CellSpec{sp}, service.SubmitOptions{Tenant: "anyone"})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	state, msg := j.State()
	if state != service.JobFailed || !strings.Contains(msg, "migration budget exhausted") {
		t.Fatalf("job = %s %q, want failed on the migration budget", state, msg)
	}
	if !alive(c, "a") {
		t.Fatal("shedding worker marked dead")
	}
}

func TestClusterHTTPTenantQuota(t *testing.T) {
	cfg := fastCfg()
	cfg.Tenants = tenant.NewRegistry(map[string]tenant.Config{
		"web": {MaxQueuedJobs: 1},
	})
	c := New(cfg)
	defer c.Close()
	hw := newHoldWorker("a")
	c.AddWorker(hw)
	defer hw.release()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	submit := func() *http.Response {
		body := strings.NewReader(`{"cells":[{"type":"stream","streams":[{"kind":"fadd"}]}]}`)
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", body)
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", "web")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submit()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("first submit: %d %s", resp.StatusCode, b)
	}
	resp.Body.Close()
	resp = submit()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Quota-Cause"); got != service.QuotaQueuedJobs {
		t.Fatalf("X-Quota-Cause = %q, want %q", got, service.QuotaQueuedJobs)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// The fleet metrics carry the per-tenant shed.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	prom, _ := io.ReadAll(mresp.Body)
	want := `smtd_cluster_tenant_shed_total{tenant="web",edge="coordinator"} 1`
	if !strings.Contains(string(prom), want) {
		t.Fatalf("metrics missing %q", want)
	}
}
