package cluster

// Cluster conformance and chaos tests against real worker services
// (full service.Service instances behind httptest servers, talked to
// over real HTTP by the Remote worker client):
//
//   - parity: a figure generated through the coordinator is
//     byte-identical to the single-node daemon and to `paper fig1`'s
//     golden output;
//   - shared store: a key warmed by one worker is served by another
//     without re-simulation;
//   - chaos: a worker killed mid-kernel loses nothing — the cell
//     migrates and resumes from the shared store's checkpoint, saving
//     cycles and reproducing the uninterrupted result exactly.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/compile"
	"smtexplore/internal/study/synth"
	"smtexplore/studies"
)

// realWorker is one full worker daemon: service + HTTP server.
type realWorker struct {
	name string
	svc  *service.Service
	ts   *httptest.Server
}

func (w *realWorker) remote() *Remote {
	return NewRemote(w.name, strings.TrimPrefix(w.ts.URL, "http://"))
}

func (w *realWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
	w.svc.Close()
}

func startWorker(t *testing.T, name string, cfg service.Config) *realWorker {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	w := &realWorker{name: name, svc: svc, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return w
}

// startStoreWorker builds a worker mounted on the shared store dir the
// same way cmd/smtd does: breaker over the store as both the cache tier
// and the checkpoint sink.
func startStoreWorker(t *testing.T, name, dir string, checkpointEvery uint64) *realWorker {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	br := store.NewBreaker(st, 5, time.Second)
	cache := runner.NewCache().WithTier(br)
	return startWorker(t, name, service.Config{
		Workers: 2, MaxActive: 1,
		Cache: cache, Store: st, Breaker: br,
		CheckpointEvery: checkpointEvery, CheckpointSink: br,
	})
}

// The conformance golden test: one figure through the cluster equals
// the single-node daemon equals `paper fig1`, byte for byte. The
// committed Figure 1 study compiles to its 30 stream cells; each
// backend runs them as one job, and the synthesized table must match
// the golden file `paper fig1` is pinned to, closing the loop
// coordinator = daemon = paper.
func TestClusterFig1Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 1 grid in -short mode")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "studies", "testdata", "fig1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := studies.Spec("fig1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]service.CellSpec, len(plan.Cells))
	for i, c := range plan.Cells {
		cells[i] = c.Spec
	}
	table := func(who string, j *service.Job) string {
		t.Helper()
		waitJobDone(t, j)
		if state, msg := j.State(); state != service.JobDone {
			t.Fatalf("%s job = %s %q", who, state, msg)
		}
		tables, err := synth.Tables(plan, j.Results())
		if err != nil {
			t.Fatal(err)
		}
		return tables[0].Text
	}

	// Single-node daemon.
	single := startWorker(t, "single", service.Config{Workers: 2, MaxActive: 1})
	sj, err := single.svc.Submit(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := table("single-node", sj); got != string(golden) {
		t.Fatalf("single-node fig1 diverges from the fig1 golden:\n got %q\nwant %q", got, golden)
	}

	// Two-worker cluster.
	a := startWorker(t, "a", service.Config{Workers: 2, MaxActive: 1})
	b := startWorker(t, "b", service.Config{Workers: 2, MaxActive: 1})
	c := New(fastCfg())
	defer c.Close()
	c.AddWorker(a.remote())
	c.AddWorker(b.remote())
	cj, err := c.SubmitWith(cells, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := table("cluster", cj); got != string(golden) {
		t.Fatalf("cluster fig1 diverges from the fig1 golden:\n got %q\nwant %q", got, golden)
	}
}

// A multi-cell batch shards across workers by ring ownership, and every
// sharded cell's value equals the direct measurement.
func TestClusterShardsBatchWithValueParity(t *testing.T) {
	a := startWorker(t, "a", service.Config{Workers: 2, MaxActive: 2})
	b := startWorker(t, "b", service.Config{Workers: 2, MaxActive: 2})
	c := New(fastCfg())
	defer c.Close()
	c.AddWorker(a.remote())
	c.AddWorker(b.remote())

	var specs []service.CellSpec
	for w := uint64(20000); w < 20008; w++ {
		specs = append(specs, service.CellSpec{
			Type: service.TypeStream, Window: w,
			Streams: []service.StreamSpec{{Kind: "fadd", ILP: "max"}, {Kind: "iload", ILP: "med"}},
		})
	}
	j, err := c.SubmitWith(specs, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q", state, msg)
	}
	// Both workers took part (deterministic: these 8 windows split
	// across the two ring owners).
	if len(a.svc.Jobs()) == 0 || len(b.svc.Jobs()) == 0 {
		t.Fatalf("batch did not shard: worker a ran %d jobs, b ran %d", len(a.svc.Jobs()), len(b.svc.Jobs()))
	}
	for i, res := range j.Results() {
		if res.State != service.CellDone {
			t.Fatalf("cell %d = %s %q", i, res.State, res.Error)
		}
		want, err := experiments.Options{}.StreamCell(experiments.StreamMachineConfig(),
			[]streams.Spec{{Kind: streams.FAddS, ILP: streams.MaxILP}, {Kind: streams.ILoadS, ILP: streams.MedILP}},
			specs[i].Window)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.CPI, want) {
			t.Fatalf("cell %d CPI %v != direct %v", i, res.CPI, want)
		}
	}
}

// A key warmed by one worker is served by another through the shared
// read-through store tier: the second worker's simulator never runs.
func TestSharedStoreServesPeerWarmKeys(t *testing.T) {
	dir := t.TempDir()
	a := startStoreWorker(t, "a", dir, 0)
	b := startStoreWorker(t, "b", dir, 0)
	c := New(fastCfg())
	defer c.Close()

	spec := service.CellSpec{Type: service.TypeStream, Window: 30000,
		Streams: []service.StreamSpec{{Kind: "fadd"}}}

	// Warm the key through worker a alone.
	c.AddWorker(a.remote())
	j1, err := c.SubmitWith([]service.CellSpec{spec}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j1)
	if state, _ := j1.State(); state != service.JobDone {
		t.Fatalf("warming job = %s", state)
	}
	if n := a.svc.Snapshot().CellsSimulated; n != 1 {
		t.Fatalf("worker a simulated %d cells, want 1", n)
	}

	// Route the same key to worker b: served from the shared tier.
	c.RemoveWorker("a")
	c.AddWorker(b.remote())
	j2, err := c.SubmitWith([]service.CellSpec{spec}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, j2)
	if state, _ := j2.State(); state != service.JobDone {
		t.Fatalf("warm-key job = %s", state)
	}
	if n := b.svc.Snapshot().CellsSimulated; n != 0 {
		t.Fatalf("worker b simulated %d cells for a peer-warmed key, want 0", n)
	}
	if !reflect.DeepEqual(j2.Results()[0].CPI, j1.Results()[0].CPI) {
		t.Fatalf("peer-served result %v != original %v", j2.Results()[0].CPI, j1.Results()[0].CPI)
	}
}

// The chaos drill: kill a worker mid-mm-64. The coordinator migrates
// the cell to the survivor, which resumes from the dead worker's
// checkpoint in the shared store — jobs_recovered and resume telemetry
// prove the path, and the result is identical to an uninterrupted run.
func TestChaosWorkerKillResumesFromSharedCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos drill in -short mode")
	}
	dir := t.TempDir()
	a := startStoreWorker(t, "a", dir, 2000)
	b := startStoreWorker(t, "b", dir, 2000)
	c := New(fastCfg())
	defer c.Close()
	c.AddWorker(a.remote())
	c.AddWorker(b.remote())

	spec := service.CellSpec{Type: service.TypeKernel, Kernel: "mm", Mode: "tlp-fine", Size: 64}
	j, err := c.SubmitWith([]service.CellSpec{spec}, service.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Whoever writes the first checkpoint is running the cell: the
	// victim. CheckpointEvery=2000 cycles makes pause points (and so the
	// kill window) plentiful relative to the mm-64 runtime.
	var victim, survivor *realWorker
	deadline := time.Now().Add(30 * time.Second)
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("no worker wrote a checkpoint within 30s")
		}
		switch {
		case a.svc.Snapshot().CheckpointsWritten > 0:
			victim, survivor = a, b
		case b.svc.Snapshot().CheckpointsWritten > 0:
			victim, survivor = b, a
		default:
			time.Sleep(time.Millisecond)
		}
	}
	victim.kill()

	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		state, msg := j.State()
		t.Fatalf("job stuck in %s %q after worker kill", state, msg)
	}
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("job = %s %q, want done after migration", state, msg)
	}

	top := c.Topology()
	if top.JobsRecovered < 1 || top.WorkersLost < 1 {
		t.Fatalf("recovered %d lost %d, want both >= 1", top.JobsRecovered, top.WorkersLost)
	}
	m := survivor.svc.Snapshot()
	if m.CheckpointsRestored < 1 || m.ResumeCyclesSaved == 0 {
		t.Fatalf("survivor restored %d checkpoints, saved %d cycles: resume did not use the shared checkpoint",
			m.CheckpointsRestored, m.ResumeCyclesSaved)
	}

	// Byte-identical to the uninterrupted control.
	control, err := experiments.NamedKernelCell(experiments.Options{}, "mm", 64, kernels.TLPFine)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Results()[0]
	if got.Kernel == nil || !reflect.DeepEqual(*got.Kernel, control) {
		t.Fatalf("resume parity violated:\n got %+v\nwant %+v", got.Kernel, control)
	}
}
