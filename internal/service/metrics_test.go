package service

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtexplore/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden compares got with testdata/<name>.golden. Regenerate with:
//
//	go test ./internal/service -run Golden -update
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

// The /metrics exposition of a daemon with every optional family on
// (store, AIMD, checkpoints, breaker, journal, tenants) is pinned byte
// for byte: family names, label order and number formats are part of
// the contract dashboards and the smoke scripts scrape.
func TestMetricsPromGolden(t *testing.T) {
	m := Metrics{
		JobsDone: 11, JobsFailed: 2, JobsCancelled: 1,
		CellsDone: 40, CellsFailed: 3, CellsCancelled: 5,
		JobsActive: 2, QueueDepth: 4, QueueCapacity: 64,
		CacheHits: 17, CacheMisses: 23, CacheEvictions: 1, CacheEntries: 22,
		HasStore: true, StoreHits: 9, StoreMisses: 14, StoreEvictions: 2,
		StoreCorrupt: 1, StoreWrites: 13, StoreIOErrors: 3,
		StoreEntries: 12, StoreBytes: 1234567,
		CellsSimulated: 14,

		SubmitRejectedFull: 6, SubmitRejectedDraining: 1, IdemHits: 2,
		CellsTimedOut: 1, JobsRecovered: 3, JobsAbandoned: 1,

		HasCheckpoint: true, CheckpointsWritten: 8, CheckpointsRestored: 2,
		CheckpointBytes: 409600, ResumeCyclesSaved: 2500000, CheckpointsOnTimeout: 1,
		Preemptions:      2,
		QueueWaitSeconds: 12.5, QueueWaitPops: 16, QueueWaitEWMASeconds: 0.375,
		ShedDeadline: 1, ShedAIMD: 4, ShedQuota: 3,
		HasAIMD: true, AIMDLimit: 7.5,

		Tenants: map[string]TenantMetrics{
			"heavy": {JobsAdmitted: 9, CellsDone: 30, CellsFailed: 2, CellsSimulated: 10,
				QueueWaitSeconds: 10.25, QueueWaitPops: 9, CyclesCharged: 4000000,
				ShedQueuedJobs: 2, ShedActiveCells: 1, ShedCycleBudget: 0,
				QueuedJobs: 3, ActiveCells: 12, StoreBytesWritten: 8192, StoreBytesServed: 4096},
			"default": {JobsAdmitted: 2, CellsDone: 10, CellsFailed: 1, CellsSimulated: 4,
				QueueWaitSeconds: 2.25, QueueWaitPops: 7, CyclesCharged: 1500000,
				ShedCycleBudget: 1, QueuedJobs: 1, ActiveCells: 2},
		},

		HasBreaker: true, BreakerState: store.BreakerHalfOpen, StoreDegraded: true,
		BreakerTrips: 2, BreakerShortCircuits: 7, BreakerProbes: 3,

		HasJournal: true, JournalWrites: 31, JournalErrors: 1,

		FaultsInjected: 5,
		Goroutines:     42,
		UptimeSeconds:  1.5e6,
	}
	var b strings.Builder
	m.WriteProm(&b)
	checkGolden(t, "metrics-daemon", []byte(b.String()))
}
