package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTargetSetRotatesAndFollowsLeader(t *testing.T) {
	ts := (&Runner{Target: "a:1, b:2"}).targets()
	if got := ts.Addr(); got != "a:1" {
		t.Fatalf("initial pick %q", got)
	}
	ts.Observe(nil, context.DeadlineExceeded)
	if got := ts.Addr(); got != "b:2" {
		t.Fatalf("after transport error pick %q", got)
	}
	resp := &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{"X-Cluster-Leader": []string{"c:3"}},
	}
	ts.Observe(resp, nil)
	if got := ts.Addr(); got != "c:3" {
		t.Fatalf("leader redirect pick %q, want c:3 (learned)", got)
	}
	ts.Observe(&http.Response{StatusCode: http.StatusAccepted, Header: http.Header{}}, nil)
	if got := ts.Addr(); got != "c:3" {
		t.Fatalf("success must not move the pick, got %q", got)
	}
}

// A run pointed at a dead address plus a standby must deliver every
// job through the leader the standby advertises: the chaos path where
// loadgen rides out a coordinator failover with zero failed jobs.
func TestRunnerFailsOverMidRun(t *testing.T) {
	d := newStubDaemon("")
	leaderSrv := httptest.NewServer(d.handler())
	defer leaderSrv.Close()
	leaderAddr := strings.TrimPrefix(leaderSrv.URL, "http://")

	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cluster-Leader", leaderAddr)
		http.Error(w, `{"error":"not the leader"}`, http.StatusServiceUnavailable)
	}))
	defer standby.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	sc := Scenario{
		Seed:     7,
		Duration: dur(300 * time.Millisecond),
		Settle:   dur(2 * time.Second),
		Tenants:  []TenantLoad{{Name: "light", RateHz: 30}},
	}
	r := &Runner{
		Target: deadAddr + "," + strings.TrimPrefix(standby.URL, "http://"),
	}
	rep, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	light := rep.Tenant("light")
	if light == nil || light.Submitted == 0 {
		t.Fatalf("light tenant missing or idle: %+v", light)
	}
	if light.Done != light.Submitted || light.Errors > 0 || light.Failed > 0 {
		t.Fatalf("failover leaked failures: %+v", light)
	}
}

// The faults phase arms the plan through POST /v1/faults at its
// scheduled offset; a 403 (daemon without -allow-fault-api) surfaces
// as a logged phase error, never a crashed run.
func TestFaultsPhaseArmsPlan(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	planJSON := `{"seed":1,"rules":[{"point":"store.write","action":"error","error":"injected","prob":1}]}`
	if err := os.WriteFile(plan, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	var armed atomic.Int64
	d := newStubDaemon("")
	mux := http.NewServeMux()
	mux.Handle("/", d.handler())
	mux.HandleFunc("POST /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		var got map[string]any
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil || got["rules"] == nil {
			http.Error(w, "bad plan body", http.StatusBadRequest)
			return
		}
		armed.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"armed": true, "rules": 1})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sc := Scenario{
		Seed:     3,
		Duration: dur(200 * time.Millisecond),
		Settle:   dur(2 * time.Second),
		Tenants:  []TenantLoad{{Name: "light", RateHz: 20}},
		Phases:   []Phase{{At: dur(50 * time.Millisecond), Kind: PhaseFaults, Plan: plan}},
	}
	r := &Runner{Target: strings.TrimPrefix(srv.URL, "http://")}
	if _, err := r.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if armed.Load() != 1 {
		t.Fatalf("fault plan armed %d times, want 1", armed.Load())
	}
}

// A faults phase against a daemon that refuses the API (no
// -allow-fault-api) must not take the run down.
func TestFaultsPhaseRefusalIsNonFatal(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	planJSON := `{"seed":1,"rules":[{"point":"store.write","action":"error","error":"injected","prob":1}]}`
	if err := os.WriteFile(plan, []byte(planJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newStubDaemon("")
	mux := http.NewServeMux()
	mux.Handle("/", d.handler())
	mux.HandleFunc("POST /v1/faults", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"fault API disabled"}`, http.StatusForbidden)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	sc := Scenario{
		Seed:     3,
		Duration: dur(150 * time.Millisecond),
		Settle:   dur(2 * time.Second),
		Tenants:  []TenantLoad{{Name: "light", RateHz: 20}},
		Phases:   []Phase{{At: dur(30 * time.Millisecond), Kind: PhaseFaults, Plan: plan}},
	}
	r := &Runner{Target: strings.TrimPrefix(srv.URL, "http://")}
	rep, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if light := rep.Tenant("light"); light == nil || light.Done != light.Submitted {
		t.Fatalf("refused fault phase damaged the run: %+v", light)
	}
}
