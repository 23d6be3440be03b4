package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"smtexplore/internal/service"
)

func TestArrivalsDeterministicAndIndependent(t *testing.T) {
	tl := &TenantLoad{Name: "a", RateHz: 50}
	s1 := arrivals(tl, tenantSeed(7, "a"), 10*time.Second)
	s2 := arrivals(tl, tenantSeed(7, "a"), 10*time.Second)
	if len(s1) == 0 {
		t.Fatal("no arrivals generated")
	}
	if len(s1) != len(s2) {
		t.Fatalf("same seed, different counts: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
	// A different tenant name derives a different stream from the same
	// scenario seed.
	s3 := arrivals(tl, tenantSeed(7, "b"), 10*time.Second)
	same := len(s3) == len(s1)
	if same {
		for i := range s1 {
			if s1[i] != s3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different tenant names produced identical schedules")
	}
	// ~50/s over 10s should land near 500 arrivals; 10x slack catches a
	// units bug (ms vs s) without flaking.
	if len(s1) < 50 || len(s1) > 5000 {
		t.Fatalf("50Hz x 10s produced %d arrivals", len(s1))
	}
	for i := 1; i < len(s1); i++ {
		if s1[i] < s1[i-1] {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	one := []time.Duration{42}
	for _, p := range []float64{1, 50, 99} {
		if got := percentile(one, p); got != 42 {
			t.Fatalf("p%.0f of one sample = %v, want 42", p, got)
		}
	}
	sorted := make([]time.Duration, 100)
	for i := range sorted {
		sorted[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Fatalf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// stubDaemon is an httptest job API: completions after runFor (instant
// by default) for most tenants, 429 with a quota cause for shedTenant.
// Each job's end is pushed over its event stream; status calls are
// counted, since a client following the stream needs none.
type stubDaemon struct {
	mu          sync.Mutex
	seq         int
	ends        map[string]time.Time // when each accepted job ends
	shedTenant  string
	submits     map[string]int // per-tenant accepted submissions
	statusCalls int
	runFor      time.Duration
}

func newStubDaemon(shedTenant string) *stubDaemon {
	return &stubDaemon{
		ends:       make(map[string]time.Time),
		shedTenant: shedTenant,
		submits:    make(map[string]int),
	}
}

// end reports when job id ends, and whether the stub knows it.
func (d *stubDaemon) end(id string) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	at, ok := d.ends[id]
	return at, ok
}

func (d *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req service.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.Cells) == 0 {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		// The daemon's precedence: the header wins over the body field.
		tn := req.Tenant
		if h := r.Header.Get("X-Tenant"); h != "" {
			tn = h
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if tn == d.shedTenant {
			w.Header().Set("X-Quota-Cause", "queued-jobs")
			w.Header().Set("Retry-After", "1")
			http.Error(w, "tenant over quota", http.StatusTooManyRequests)
			return
		}
		d.seq++
		id := fmt.Sprintf("j%04d", d.seq)
		d.ends[id] = time.Now().Add(d.runFor)
		d.submits[tn]++
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id, "state": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		d.mu.Lock()
		d.statusCalls++
		d.mu.Unlock()
		at, ok := d.end(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		st := "running"
		if !time.Now().Before(at) {
			st = "done"
		}
		json.NewEncoder(w).Encode(map[string]string{"id": r.PathValue("id"), "state": st})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		at, ok := d.end(r.PathValue("id"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-time.After(time.Until(at)):
		case <-r.Context().Done():
			return
		}
		fmt.Fprintf(w, "event: end\ndata: {\"job\":%q,\"state\":\"done\"}\n\n", r.PathValue("id"))
	})
	return mux
}

func TestRunnerAgainstStubDaemon(t *testing.T) {
	d := newStubDaemon("heavy")
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	var killed []string
	var killMu sync.Mutex
	sc := Scenario{
		Seed:     42,
		Duration: dur(600 * time.Millisecond),
		Settle:   dur(2 * time.Second),
		Tenants: []TenantLoad{
			{Name: "light", RateHz: 40, CellsPerJob: 2},
			{Name: "heavy", RateHz: 40},
		},
		Phases: []Phase{{At: dur(100 * time.Millisecond), Kind: PhaseKill, Pidfile: "fake.pid"}},
	}
	r := &Runner{
		Target: strings.TrimPrefix(srv.URL, "http://"),
		Kill: func(pidfile string) error {
			killMu.Lock()
			killed = append(killed, pidfile)
			killMu.Unlock()
			return nil
		},
	}
	rep, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	light := rep.Tenant("light")
	if light == nil || light.Submitted == 0 {
		t.Fatalf("light tenant missing or idle: %+v", light)
	}
	if light.Done != light.Submitted {
		t.Fatalf("light: %d done of %d submitted (shed=%d err=%d lost=%d)",
			light.Done, light.Submitted, light.Shed, light.Errors, light.Lost)
	}
	if light.CellsDone != 2*light.Done {
		t.Fatalf("light cells done = %d, want %d (2 per job)", light.CellsDone, 2*light.Done)
	}
	if light.GoodputJobsPerSec <= 0 || light.P50Ms <= 0 {
		t.Fatalf("light goodput/p50 not measured: %+v", light)
	}

	heavy := rep.Tenant("heavy")
	if heavy == nil || heavy.Submitted == 0 {
		t.Fatalf("heavy tenant missing or idle: %+v", heavy)
	}
	if heavy.Shed != heavy.Submitted {
		t.Fatalf("heavy: %d shed of %d submitted", heavy.Shed, heavy.Submitted)
	}
	if heavy.ShedCauses["queued-jobs"] != heavy.Shed {
		t.Fatalf("heavy shed causes = %v, want all queued-jobs", heavy.ShedCauses)
	}

	// The daemon saw the light tenant's X-Tenant header on every accept.
	d.mu.Lock()
	accepted := d.submits["light"]
	d.mu.Unlock()
	if accepted != light.Submitted {
		t.Fatalf("daemon accepted %d light jobs, report says %d", accepted, light.Submitted)
	}
	// Every job's end came over its event stream: nothing polled.
	d.mu.Lock()
	polls := d.statusCalls
	d.mu.Unlock()
	if polls != 0 {
		t.Fatalf("runner made %d status calls, want 0 (it follows the event stream)", polls)
	}

	killMu.Lock()
	defer killMu.Unlock()
	if len(killed) != 1 || killed[0] != "fake.pid" {
		t.Fatalf("kill phase ran %v, want [fake.pid]", killed)
	}
}

// A job's latency is the time to its end event, not to the next tick
// of a status poll: a job the daemon ends after runFor reports a
// latency within 20 ms of it.
func TestRunnerLatencyIsEndEventReceipt(t *testing.T) {
	const runFor = 120 * time.Millisecond
	d := newStubDaemon("")
	d.runFor = runFor
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	sc := Scenario{
		Seed:     5,
		Duration: dur(500 * time.Millisecond),
		Settle:   dur(2 * time.Second),
		Tenants:  []TenantLoad{{Name: "light", RateHz: 20}},
	}
	rep, err := (&Runner{Target: strings.TrimPrefix(srv.URL, "http://")}).Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	light := rep.Tenant("light")
	if light == nil || light.Submitted == 0 || light.Done != light.Submitted {
		t.Fatalf("light: %+v, want every submitted job done", light)
	}
	for _, lat := range rep.latencies["light"] {
		if lat < runFor || lat >= runFor+20*time.Millisecond {
			t.Errorf("job latency %v, want within [%v, %v)", lat, runFor, runFor+20*time.Millisecond)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.statusCalls != 0 {
		t.Errorf("runner made %d status calls, want 0", d.statusCalls)
	}
}

func TestRunnerContextCancelCountsLost(t *testing.T) {
	// A daemon that accepts but never finishes: cancelling the run must
	// return promptly with the in-flight jobs counted as lost.
	var mu sync.Mutex
	seq := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seq++
		id := fmt.Sprintf("j%04d", seq)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id, "state": "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"state": "running"})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sc := Scenario{
		Seed:     1,
		Duration: dur(10 * time.Second),
		Settle:   dur(time.Second),
		Tenants:  []TenantLoad{{Name: "stuck", RateHz: 50}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	r := &Runner{Target: strings.TrimPrefix(srv.URL, "http://")}
	done := make(chan *Report, 1)
	go func() {
		rep, err := r.Run(ctx, sc)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		tr := rep.Tenant("stuck")
		if tr == nil || tr.Submitted == 0 {
			t.Fatalf("no submissions before cancel: %+v", tr)
		}
		// A submission caught mid-POST by the cancel reports "error";
		// everything else in flight must land as "lost", never "done".
		if tr.Done != 0 || tr.Lost == 0 || tr.Lost+tr.Errors != tr.Submitted {
			t.Fatalf("cancelled run: %d done, %d lost, %d errors of %d submitted",
				tr.Done, tr.Lost, tr.Errors, tr.Submitted)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

func TestKillRejectsBadPidfiles(t *testing.T) {
	r := &Runner{}
	if err := r.kill("/nonexistent/worker.pid"); err == nil {
		t.Fatal("missing pidfile: want error")
	}
	dir := t.TempDir()
	for name, content := range map[string]string{
		"junk.pid": "not-a-pid\n",
		"init.pid": "1\n", // never signal init
		"zero.pid": "0\n", // kill(0, ...) would signal our process group
	} {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := r.kill(path); err == nil {
			t.Fatalf("%s (%q): want error", name, content)
		}
	}
}

func TestCheckAssertions(t *testing.T) {
	rep := &Report{Tenants: []TenantReport{
		{Name: "light", Done: 40, Failed: 0, GoodputJobsPerSec: 4.0, P99Ms: 100},
		{Name: "heavy", Done: 10, Failed: 2, Shed: 30, ShedCauses: map[string]int{"queued-jobs": 25, "cycle-budget": 5}},
	}}
	solo := &Report{Tenants: []TenantReport{
		{Name: "light", Done: 50, GoodputJobsPerSec: 5.0, P99Ms: 60},
	}}

	pass := []string{
		"done-min:light:40",
		"no-failed:light",
		"shed-cause-min:heavy:queued-jobs:25",
		"goodput-frac:light:0.8", // 4.0 >= 0.8*5.0
		"p99-factor:light:2",     // 100 <= 2*60
	}
	var asserts []Assertion
	for _, s := range pass {
		a, err := ParseAssertion(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		asserts = append(asserts, a)
	}
	if errs := rep.Check(asserts, solo); len(errs) != 0 {
		t.Fatalf("passing assertions failed: %v", errs)
	}

	failCases := []string{
		"done-min:light:41",
		"no-failed:heavy",
		"shed-cause-min:heavy:cycle-budget:6",
		"goodput-frac:light:0.9", // 4.0 < 0.9*5.0
		"p99-factor:light:1.5",   // 100 > 1.5*60
		"done-min:ghost:1",       // unknown tenant
	}
	for _, s := range failCases {
		a, err := ParseAssertion(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if errs := rep.Check([]Assertion{a}, solo); len(errs) != 1 {
			t.Fatalf("%s: got %v, want exactly one failure", s, errs)
		}
	}

	// Relative assertions without a baseline are a configuration error,
	// not a silent pass.
	a, _ := ParseAssertion("goodput-frac:light:0.8")
	if errs := rep.Check([]Assertion{a}, nil); len(errs) != 1 || !strings.Contains(errs[0].Error(), "baseline") {
		t.Fatalf("baseline-less relative assertion: %v", errs)
	}
}

func TestParseAssertionRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		"", "done-min", "done-min:t", "done-min:t:x", "done-min:t:-1",
		"goodput-frac:t:nope", "shed-cause-min:t:c", "no-failed", "latency-max:t:5",
	} {
		if _, err := ParseAssertion(s); err == nil {
			t.Fatalf("%q: want parse error", s)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := newReport(Scenario{
		Seed:    9,
		Tenants: []TenantLoad{{Name: "a", RateHz: 2}, {Name: "b", RateHz: 4}},
	}, time.Now())
	rep.add(jobOutcome{tenant: "a", state: "done", latency: 20 * time.Millisecond, cells: 1})
	rep.add(jobOutcome{tenant: "a", state: "shed", cause: "queued-jobs"})
	rep.add(jobOutcome{tenant: "b", state: "done", latency: 40 * time.Millisecond, cells: 3})
	rep.add(jobOutcome{tenant: "b", state: "failed"})
	rep.finish(2 * time.Second)

	if rep.FairnessRatio != 1 {
		t.Fatalf("equal-done fairness = %v, want 1", rep.FairnessRatio)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Tenant("b"); got == nil || got.CellsDone != 3 || got.Failed != 1 {
		t.Fatalf("round-tripped b = %+v", got)
	}
	if time.Duration(back.Wall) != 2*time.Second {
		t.Fatalf("round-tripped wall = %v", time.Duration(back.Wall))
	}
	// The bench shape carries the same numbers under the repo schema.
	bb, err := rep.BenchJSON("deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Schema     string `json:"schema"`
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(bb, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.Schema != "smtexplore-bench/v1" || len(bench.Benchmarks) != 2 {
		t.Fatalf("bench doc = %s", bb)
	}
	if bench.Benchmarks[0].Name != "LoadGen/tenant=a" || bench.Benchmarks[0].Metrics["done"] != 1 {
		t.Fatalf("bench entry 0 = %+v", bench.Benchmarks[0])
	}
}
