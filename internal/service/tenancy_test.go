package service

// Tests for the admission half of multi-tenancy: quota refusals with
// quota-specific causes, the EWMA-derived Retry-After hint, the
// X-Tenant HTTP path, per-tenant metrics, and — the compatibility
// contract — that a service with no tenant configuration behaves
// exactly as before.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/store"
	"smtexplore/internal/tenant"
)

// slowUntilReleased builds a cell fn that blocks until release is
// closed, so tests can pin jobs in the live set deterministically.
func slowUntilReleased(release <-chan struct{}) func(ctx context.Context, spec CellSpec, _ string) CellResult {
	return func(ctx context.Context, spec CellSpec, _ string) CellResult {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return CellResult{Label: spec.Label(), State: CellDone, CPI: []float64{1}}
	}
}

func TestQuotaMaxQueuedJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"capped": {MaxQueuedJobs: 2},
	})
	s := stubService(Config{MaxActive: 1, QueueDepth: 16, Tenants: reg}, slowUntilReleased(release))
	defer s.Close()

	// One job runs (leaves the queue), two sit queued — at quota.
	j, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "capped"})
	if err != nil {
		t.Fatalf("first submit refused: %v", err)
	}
	waitState(t, j, JobRunning)
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "capped"}); err != nil {
			t.Fatalf("submit %d refused below quota: %v", i, err)
		}
	}
	waitQueued(t, s, "capped", 2)
	_, err = s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "capped"})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Cause != QuotaQueuedJobs {
		t.Fatalf("submit over queued-jobs quota: err=%v, want QuotaError(%s)", err, QuotaQueuedJobs)
	}
	// Another tenant is unaffected by capped's quota.
	if _, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "free"}); err != nil {
		t.Fatalf("unrelated tenant refused: %v", err)
	}
}

// waitQueued waits for a tenant's queued depth to settle at want.
func waitQueued(t *testing.T, s *Service, tn string, want int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for s.queue.lenTenant(tn) != want {
		select {
		case <-deadline:
			t.Fatalf("tenant %s queue depth stuck at %d, want %d", tn, s.queue.lenTenant(tn), want)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestQuotaMaxActiveCells(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"capped": {MaxActiveCells: 3},
	})
	s := stubService(Config{MaxActive: 1, QueueDepth: 16, Tenants: reg}, slowUntilReleased(release))
	defer s.Close()

	if _, err := s.SubmitWith([]CellSpec{validSpec(), validSpec()}, SubmitOptions{Tenant: "capped"}); err != nil {
		t.Fatalf("first batch refused: %v", err)
	}
	// 2 cells live; a 2-cell batch would exceed the 3-cell cap.
	_, err := s.SubmitWith([]CellSpec{validSpec(), validSpec()}, SubmitOptions{Tenant: "capped"})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Cause != QuotaActiveCells {
		t.Fatalf("over active-cells quota: err=%v, want QuotaError(%s)", err, QuotaActiveCells)
	}
	// A 1-cell batch still fits.
	if _, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "capped"}); err != nil {
		t.Fatalf("within-quota submit refused: %v", err)
	}
}

func TestQuotaActiveCellsReleasedOnFinish(t *testing.T) {
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"capped": {MaxActiveCells: 1},
	})
	s := stubService(Config{MaxActive: 1, QueueDepth: 16, Tenants: reg}, instantDone)
	defer s.Close()
	for i := 0; i < 3; i++ {
		j, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "capped"})
		if err != nil {
			t.Fatalf("submit %d refused (quota not released on finish?): %v", i, err)
		}
		waitDone(t, j)
	}
}

func TestQuotaCycleBudget(t *testing.T) {
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"metered": {CycleBudget: 100, BudgetInterval: tenant.Duration(time.Hour)},
	})
	// Real cell accounting: stub reports done with a stream result, and
	// countCells charges the stream window (cheap: tiny window).
	s := stubService(Config{MaxActive: 1, QueueDepth: 16, Tenants: reg}, instantDone)
	defer s.Close()
	spec := CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}, Window: 200}
	j, err := s.SubmitWith([]CellSpec{spec}, SubmitOptions{Tenant: "metered"})
	if err != nil {
		t.Fatalf("first submit refused: %v", err)
	}
	waitDone(t, j)
	// 200 cycles charged against a 100-cycle budget: the window is
	// exhausted and the next submit is shed with the budget cause.
	deadline := time.After(5 * time.Second)
	for {
		_, err = s.SubmitWith([]CellSpec{spec}, SubmitOptions{Tenant: "metered"})
		var qe *QuotaError
		if errors.As(err, &qe) {
			if qe.Cause != QuotaCycleBudget {
				t.Fatalf("cause = %s, want %s", qe.Cause, QuotaCycleBudget)
			}
			break
		}
		// The charge lands in countCells just before the job turns
		// terminal; a fast resubmit can slip in ahead of it.
		select {
		case <-deadline:
			t.Fatalf("budget never enforced; last err=%v", err)
		case <-time.After(5 * time.Millisecond):
			if err == nil {
				// Drain the accidentally-admitted job before retrying.
				for _, jb := range s.Jobs() {
					waitDone(t, jb)
				}
			}
		}
	}
}

func TestRetryAfterTracksEWMA(t *testing.T) {
	s := stubService(Config{}, instantDone)
	defer s.Close()
	// Idle service: floor of 1s.
	if got := retryAfter(s.QueueWaitEWMA()); got != "1" {
		t.Fatalf("idle retryAfter = %s, want 1", got)
	}
	// Feed measured waits: EWMA converges toward 4s → hint 2×4=8.
	for i := 0; i < 50; i++ {
		s.noteQueueWait("default", 4*time.Second)
	}
	got, err := strconv.Atoi(retryAfter(s.QueueWaitEWMA()))
	if err != nil || got < 7 || got > 8 {
		t.Fatalf("retryAfter after 4s waits = %v (err %v), want ~8", got, err)
	}
	// Pathological waits clamp at 30s.
	for i := 0; i < 50; i++ {
		s.noteQueueWait("default", 10*time.Minute)
	}
	if got := retryAfter(s.QueueWaitEWMA()); got != "30" {
		t.Fatalf("retryAfter after 10m waits = %s, want 30 (cap)", got)
	}
}

func TestHTTPTenantHeaderAndQuotaCause(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"web": {MaxQueuedJobs: 1},
	})
	s := stubService(Config{MaxActive: 1, QueueDepth: 16, Tenants: reg}, slowUntilReleased(release))
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func(tenantHeader string) *http.Response {
		body := strings.NewReader(`{"cells":[{"type":"stream","streams":[{"kind":"fadd"}]}]}`)
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", body)
		req.Header.Set("Content-Type", "application/json")
		if tenantHeader != "" {
			req.Header.Set("X-Tenant", tenantHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// First submit runs, second queues (at quota), third is shed.
	resp0 := submit("web")
	if resp0.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp0.StatusCode)
	}
	resp0.Body.Close()
	waitQueued(t, s, "web", 0) // popped by the (blocked) worker
	resp1 := submit("web")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp1.StatusCode)
	}
	resp1.Body.Close()
	waitQueued(t, s, "web", 1)
	resp := submit("web")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Quota-Cause"); got != QuotaQueuedJobs {
		t.Fatalf("X-Quota-Cause = %q, want %q", got, QuotaQueuedJobs)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e.Error, QuotaQueuedJobs) || !strings.Contains(e.Error, "web") {
		t.Fatalf("error body %q lacks cause and tenant", e.Error)
	}

	// Invalid tenant names are a 400, not an accounting surprise.
	resp = submit("no spaces")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid tenant status = %d, want 400", resp.StatusCode)
	}
}

func TestTenantMetricsExposed(t *testing.T) {
	reg := tenant.NewRegistry(map[string]tenant.Config{
		"alice": {MaxQueuedJobs: 8},
	})
	lg := store.NewLedger()
	s := stubService(Config{Tenants: reg, StoreLedger: lg}, instantDone)
	defer s.Close()
	j, err := s.SubmitWith([]CellSpec{validSpec()}, SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	lg.ChargeWrite("alice", 128)
	lg.ChargeServe("alice", 64)

	m := s.Snapshot()
	row, ok := m.Tenants["alice"]
	if !ok {
		t.Fatalf("snapshot lacks tenant row: %+v", m.Tenants)
	}
	if row.JobsAdmitted != 1 || row.CellsDone != 1 {
		t.Fatalf("alice row = %+v", row)
	}
	if row.StoreBytesWritten != 128 || row.StoreBytesServed != 64 {
		t.Fatalf("ledger bytes not surfaced: %+v", row)
	}

	var b strings.Builder
	m.WriteProm(&b)
	prom := b.String()
	for _, want := range []string{
		`smtd_tenant_jobs_admitted_total{tenant="alice"} 1`,
		`smtd_tenant_cells_total{tenant="alice",state="done"} 1`,
		`smtd_tenant_store_bytes_total{tenant="alice",dir="written"} 128`,
		`smtd_shed_total{reason="quota"} 0`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom output missing %q", want)
		}
	}
}

// TestDefaultTenantCompat locks the compatibility contract: with no
// tenant configuration, submissions without a tenant work exactly as
// before and are accounted to the default tenant.
func TestDefaultTenantCompat(t *testing.T) {
	s := stubService(Config{}, instantDone)
	defer s.Close()
	j, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Tenant != tenant.Default {
		t.Fatalf("job tenant = %q, want %q", j.Tenant, tenant.Default)
	}
	m := s.Snapshot()
	if row := m.Tenants[tenant.Default]; row.JobsAdmitted != 1 {
		t.Fatalf("default tenant row = %+v", row)
	}
}

// TestJournalCarriesTenant proves a restart keeps jobs accounted to
// their owners: a journaled live record replays under its original
// tenant, and a pre-tenancy record (no tenant field) lands on the
// default tenant instead of breaking.
func TestJournalCarriesTenant(t *testing.T) {
	jl, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{ID: "j0001", Specs: []CellSpec{validSpec()}, State: JobQueued, Created: time.Now(), Tenant: "owner"},
		{ID: "j0002", Specs: []CellSpec{validSpec()}, State: JobQueued, Created: time.Now()},
	} {
		if err := jl.write(rec); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Workers: 1, Journal: jl})
	defer s.Close()
	j1, ok := s.Job("j0001")
	if !ok {
		t.Fatal("journaled live job not re-registered")
	}
	if j1.Tenant != "owner" {
		t.Fatalf("recovered tenant = %q, want owner", j1.Tenant)
	}
	j2, _ := s.Job("j0002")
	if j2.Tenant != tenant.Default {
		t.Fatalf("pre-tenancy record tenant = %q, want %q", j2.Tenant, tenant.Default)
	}
	waitDone(t, j1)
	waitDone(t, j2)
}
