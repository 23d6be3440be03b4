package cluster

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smtexplore/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got with testdata/<name>.golden. Regenerate with:
//
//	go test ./internal/cluster -run Golden -update
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// goldenCoordinator builds a coordinator in a fixed state: three
// registered workers (one lost), per-worker telemetry with tenant rows,
// coordinator-edge sheds and in-flight gauges. The health loop never
// ticks, so nothing moves while the test scrapes it.
func goldenCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c := New(Config{HealthInterval: time.Hour})
	t.Cleanup(c.Close)
	for _, n := range []string{"w1", "w2", "w3"} {
		c.AddWorker(newFakeWorker(n))
	}
	c.RemoveWorker("w3")

	c.mu.Lock()
	defer c.mu.Unlock()
	c.members["w1"].stats = service.Metrics{
		CellsSimulated: 10, CellsDone: 12, StoreHits: 2, StoreWrites: 10,
		CheckpointsWritten: 4, CheckpointsRestored: 1, ResumeCyclesSaved: 250000,
		Tenants: map[string]service.TenantMetrics{
			"heavy":   {JobsAdmitted: 5, CellsDone: 9, CellsFailed: 1, CyclesCharged: 3000000, ShedQueuedJobs: 1, ShedCycleBudget: 2},
			"default": {JobsAdmitted: 2, CellsDone: 3, CyclesCharged: 500000},
		},
	}
	c.members["w1"].statsOK = true
	c.members["w2"].stats = service.Metrics{
		CellsSimulated: 7, CellsDone: 8, StoreHits: 1, StoreWrites: 7,
		CheckpointsWritten: 2,
		Tenants: map[string]service.TenantMetrics{
			"heavy": {JobsAdmitted: 3, CellsDone: 8, CyclesCharged: 1500000, ShedActiveCells: 1},
		},
	}
	c.members["w2"].statsOK = true
	c.jobsDone, c.jobsFailed, c.jobsCancelled = 9, 1, 2
	c.cellsForwarded, c.steals = 31, 3
	c.jobsRecovered, c.migratedCells, c.jobsAdopted = 2, 4, 1
	c.workersLost, c.registrations = 1, 3
	c.tenantSheds["light"] = 4
	c.tenantJobs["heavy"], c.tenantCells["heavy"] = 2, 6
	return c
}

func scrape(t *testing.T, h http.Handler) []byte {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The coordinator's /metrics bytes are pinned: cluster counters, fleet
// sums over the live telemetry, and the per-tenant rollup.
func TestCoordinatorMetricsGolden(t *testing.T) {
	checkGolden(t, "metrics-coordinator", scrape(t, goldenCoordinator(t).Handler()))
}

// An HA leader's /metrics is the smtd_ha_* block followed by its
// coordinator's families.
func TestHALeaderMetricsGolden(t *testing.T) {
	n := &HANode{
		cfg:  HAConfig{Name: "a", Addr: "127.0.0.1:1"},
		role: RoleLeader, term: 4,
		coord:      goldenCoordinator(t),
		promotions: 2, demotions: 1,
		failover: 1500 * time.Millisecond, failoverSet: true,
		hb: map[string]hbEntry{},
	}
	checkGolden(t, "metrics-ha-leader", scrape(t, n.Handler()))
}
