package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
)

// validSpec is a cheap, validation-passing cell for tests that stub out
// execution entirely.
func validSpec() CellSpec {
	return CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}}
}

// stubService builds a service whose cells run fn instead of the
// simulator. fn is installed before any Submit, so workers observe it.
func stubService(cfg Config, fn func(ctx context.Context, spec CellSpec, artifactDir string) CellResult) *Service {
	s := New(cfg)
	s.runCell = func(ctx context.Context, spec CellSpec, artifactDir string, _ *cellCtl) CellResult {
		return fn(ctx, spec, artifactDir)
	}
	return s
}

func instantDone(_ context.Context, spec CellSpec, _ string) CellResult {
	return CellResult{Label: spec.Label(), State: CellDone, CPI: []float64{1}}
}

func waitState(t *testing.T, j *Job, want string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		state, _ := j.State()
		if state == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %q, want %q", j.ID, state, want)
		case <-time.After(time.Millisecond):
		}
	}
}

// waitDone bounds a test's wait for a terminal job. The cap is generous
// because the slowest cells (a full LU-64 ablation) run 40s+ under the
// race detector on a slow machine; a genuine hang still fails.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(3 * time.Minute):
		state, _ := j.State()
		t.Fatalf("job %s never became terminal (state %q)", j.ID, state)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := stubService(Config{}, instantDone)
	defer s.Close()
	cases := []struct {
		name  string
		specs []CellSpec
		want  string
	}{
		{"empty batch", nil, "empty batch"},
		{"unknown type", []CellSpec{{Type: "bogus"}}, "unknown cell type"},
		{"unknown kind", []CellSpec{{Type: TypeStream, Streams: []StreamSpec{{Kind: "nope"}}}}, "unknown stream kind"},
		{"unknown ilp", []CellSpec{{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd", ILP: "huge"}}}}, "unknown ILP"},
		{"no streams", []CellSpec{{Type: TypeStream}}, "at least one stream"},
		{"unknown kernel", []CellSpec{{Type: TypeKernel, Kernel: "fft"}}, "unknown kernel"},
		{"unknown mode", []CellSpec{{Type: TypeKernel, Kernel: "mm", Mode: "warp"}}, "unknown mode"},
		// Whole tables are grids of kernel and profile cells of the
		// committed studies; the harness cell kind is gone.
		{"unknown harness", []CellSpec{{Type: "harness"}}, "unknown cell type"},
		{"unknown variant", []CellSpec{{Type: TypeKernel, Kernel: "mm", Size: 64, Variant: "fig1"}}, "unknown variant"},
		{"observe profile", []CellSpec{{Type: TypeProfile, Kernel: "mm", Observe: true}}, "only supported for stream and kernel"},
		{"observe without dir", []CellSpec{{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}, Observe: true}}, "no artifact directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(tc.specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit = %v, want error containing %q", err, tc.want)
			}
		})
	}
	// A 3-stream cell is deliberately accepted at submit time: the stream
	// count is validated inside the cell so it fails that cell, not the
	// batch (TestRuntimeCellFailure covers the execution side).
	three := CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}, {Kind: "fadd"}, {Kind: "fadd"}}}
	if _, err := s.Submit([]CellSpec{three}); err != nil {
		t.Fatalf("3-stream cell rejected at submit: %v", err)
	}
}

// The real thing: a stream cell through the service must equal the same
// measurement made directly, value for value.
func TestStreamCellMatchesDirect(t *testing.T) {
	const window = 2000
	s := New(Config{Workers: 2})
	defer s.Close()
	spec := CellSpec{
		Type:    TypeStream,
		Streams: []StreamSpec{{Kind: "fadd", ILP: "max"}, {Kind: "iload", ILP: "med"}},
		Window:  window,
	}
	j, err := s.Submit([]CellSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if state, msg := j.State(); state != JobDone {
		t.Fatalf("job %s: %s", state, msg)
	}
	got := j.Results()[0]

	specs, err := spec.streamSpecs()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Options{}.StreamCell(experiments.StreamMachineConfig(), specs, window)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CPI, want) {
		t.Errorf("service CPI %v != direct CPI %v", got.CPI, want)
	}
}

// One bad cell (a stream count the harness rejects) fails that cell and
// the job, but the good cell still completes with its result.
func TestRuntimeCellFailure(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	bad := CellSpec{Type: TypeStream, Window: 2000,
		Streams: []StreamSpec{{Kind: "fadd"}, {Kind: "fadd"}, {Kind: "fadd"}}}
	good := CellSpec{Type: TypeStream, Window: 2000, Streams: []StreamSpec{{Kind: "fadd"}}}
	j, err := s.Submit([]CellSpec{bad, good})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	state, msg := j.State()
	if state != JobFailed {
		t.Fatalf("job state %q, want failed", state)
	}
	if !strings.Contains(msg, "cell 0") || !strings.Contains(msg, "3 streams") {
		t.Errorf("job error %q does not identify the failing cell", msg)
	}
	res := j.Results()
	if res[0].State != CellFailed || !strings.Contains(res[0].Error, "3 streams") {
		t.Errorf("bad cell = %+v, want failed with stream-count error", res[0])
	}
	if res[1].State != CellDone || len(res[1].CPI) != 1 {
		t.Errorf("good cell = %+v, want done with one CPI", res[1])
	}
}

// A second submission against the same disk store, from a cold process
// (fresh cache), must be served entirely from the store: identical
// results and zero simulated cells.
func TestWarmStoreSecondSubmission(t *testing.T) {
	dir := t.TempDir()
	spec := CellSpec{
		Type:    TypeStream,
		Streams: []StreamSpec{{Kind: "fadd", ILP: "max"}, {Kind: "iload", ILP: "med"}},
		Window:  2000,
	}

	runOnce := func() (Metrics, []CellResult) {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cache := runner.NewCache().WithTier(st)
		s := New(Config{Workers: 2, Cache: cache, Store: st})
		defer s.Close()
		j, err := s.Submit([]CellSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if state, msg := j.State(); state != JobDone {
			t.Fatalf("job %s: %s", state, msg)
		}
		return s.Snapshot(), j.Results()
	}

	cold, coldRes := runOnce()
	if cold.CellsSimulated != 1 {
		t.Fatalf("cold run simulated %d cells, want 1", cold.CellsSimulated)
	}
	warm, warmRes := runOnce()
	if warm.CellsSimulated != 0 {
		t.Errorf("warm run simulated %d cells, want 0 (store hits %d)", warm.CellsSimulated, warm.StoreHits)
	}
	if warm.StoreHits != 1 {
		t.Errorf("warm run: %d store hits, want 1", warm.StoreHits)
	}
	if !reflect.DeepEqual(coldRes[0].CPI, warmRes[0].CPI) {
		t.Errorf("warm CPI %v != cold CPI %v", warmRes[0].CPI, coldRes[0].CPI)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := stubService(Config{MaxActive: 1, QueueDepth: 4},
		func(ctx context.Context, spec CellSpec, _ string) CellResult {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return CellResult{Label: spec.Label(), State: CellDone}
		})
	defer s.Close()
	defer close(release)

	if _, err := s.Submit([]CellSpec{validSpec()}); err != nil {
		t.Fatal(err)
	}
	<-started // the first job occupies the single worker
	b, err := s.Submit([]CellSpec{validSpec(), validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(b.ID) {
		t.Fatal("Cancel returned false for a known job")
	}
	waitDone(t, b)
	if state, msg := b.State(); state != JobCancelled || msg != "cancelled before start" {
		t.Fatalf("queued job after cancel: %q / %q", state, msg)
	}
	for _, c := range b.Results() {
		if c.State != CellCancelled {
			t.Errorf("cell %d state %q, want cancelled", c.Index, c.State)
		}
	}
	if s.Cancel("j9999") {
		t.Error("Cancel of unknown job returned true")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	s := stubService(Config{MaxActive: 1},
		func(ctx context.Context, spec CellSpec, _ string) CellResult {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return CellResult{Label: spec.Label(), State: CellCancelled, Error: ctx.Err().Error()}
		})
	defer s.Close()

	j, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel returned false")
	}
	waitDone(t, j)
	if state, _ := j.State(); state != JobCancelled {
		t.Fatalf("running job after cancel: state %q, want cancelled", state)
	}
}

func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := stubService(Config{MaxActive: 1, QueueDepth: 1},
		func(ctx context.Context, spec CellSpec, _ string) CellResult {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return CellResult{Label: spec.Label(), State: CellDone}
		})
	defer s.Close()
	defer close(release)

	if _, err := s.Submit([]CellSpec{validSpec()}); err != nil {
		t.Fatal(err)
	}
	<-started // worker busy; the queue (depth 1) is empty again
	if _, err := s.Submit([]CellSpec{validSpec()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit([]CellSpec{validSpec()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
}

func TestDrainGraceful(t *testing.T) {
	s := stubService(Config{MaxActive: 2}, instantDone)
	var jobs []*Job
	for range 3 {
		j, err := s.Submit([]CellSpec{validSpec()})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}
	for _, j := range jobs {
		if state, msg := j.State(); state != JobDone {
			t.Errorf("job %s after drain: %s / %s", j.ID, state, msg)
		}
	}
	if _, err := s.Submit([]CellSpec{validSpec()}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
}

func TestDrainTimeoutAborts(t *testing.T) {
	started := make(chan struct{}, 1)
	s := stubService(Config{MaxActive: 1},
		func(ctx context.Context, spec CellSpec, _ string) CellResult {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done() // a cell that only stops when aborted
			return CellResult{Label: spec.Label(), State: CellCancelled, Error: ctx.Err().Error()}
		})
	j, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	// Drain's abort path cancelled the job context; the job must have
	// wound down as cancelled by the time Drain returned.
	if state, _ := j.State(); state != JobCancelled {
		t.Errorf("job after aborted drain: state %q, want cancelled", state)
	}
}

func TestEventStreamOrder(t *testing.T) {
	s := stubService(Config{Workers: 1}, instantDone)
	defer s.Close()
	j, err := s.Submit([]CellSpec{validSpec(), validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	evs, _, terminal := j.EventsSince(0)
	if !terminal {
		t.Fatal("job not terminal after Done")
	}
	var cells, jobEvents int
	for i, ev := range evs {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		switch ev.Type {
		case "cell":
			cells++
		case "job":
			jobEvents++
		}
	}
	if cells != 2 {
		t.Errorf("%d cell events, want 2", cells)
	}
	if last := evs[len(evs)-1]; last.Type != "job" || last.State != JobDone {
		t.Errorf("last event %+v, want job/done", last)
	}
	if jobEvents < 2 { // running + done at minimum
		t.Errorf("%d job events, want >= 2", jobEvents)
	}
}

// The selective-halting study's two cells, served by the daemon, must
// render byte-identically to what `paper selective` prints, since that
// is the service's contract.
func TestSelectiveCellsMatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real LU ablation; skipped in -short")
	}
	s := New(Config{})
	defer s.Close()
	j, err := s.Submit([]CellSpec{
		{Type: TypeKernel, Kernel: "lu", Size: 64, Mode: "tlp-coarse"},
		{Type: TypeKernel, Kernel: "lu", Size: 64, Mode: "tlp-coarse", Variant: "halt=selective"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if state, msg := j.State(); state != JobDone {
		t.Fatalf("job %s: %s", state, msg)
	}
	res := j.Results()
	got := experiments.FormatSelectiveHalt(experiments.SelectiveHaltResult{Baseline: *res[0].Kernel, Planned: *res[1].Kernel}) + "\n"
	want, err := os.ReadFile("../../studies/testdata/selective.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("served cells render differently from the golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Two variants of one kernel cell are two cells: distinct labels (the
// status display and the cluster's routing key) and distinct observe
// artifacts.
func TestVariantCellsAreDistinct(t *testing.T) {
	dir := t.TempDir()
	opt := experiments.Options{Observe: &experiments.Observe{Dir: dir}}
	seenLabel, seenArtifact := map[string]bool{}, map[string]bool{}
	for _, v := range []string{"", "rob=64", "rob=256"} {
		spec := CellSpec{Type: TypeKernel, Kernel: "mm", Size: 16, Variant: v, Observe: true}
		if seenLabel[spec.Label()] {
			t.Errorf("variant %q repeats label %q", v, spec.Label())
		}
		seenLabel[spec.Label()] = true
		res := EvalCell(context.Background(), spec, opt)
		if res.State != CellDone || len(res.Artifacts) == 0 {
			t.Fatalf("variant %q: %s %s, artifacts %v", v, res.State, res.Error, res.Artifacts)
		}
		for _, a := range res.Artifacts {
			if seenArtifact[a] {
				t.Errorf("variant %q repeats artifact %s", v, a)
			}
			seenArtifact[a] = true
			if _, err := os.Stat(filepath.Join(dir, a)); err != nil {
				t.Errorf("variant %q: %v", v, err)
			}
		}
	}
}

func TestStreamCellSharesHarnessKeys(t *testing.T) {
	// A service stream cell and the equivalent direct measurement must
	// produce the same cache key: prime a cache directly, then watch the
	// service hit it without computing.
	const window = 2000
	spec := CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}, Window: window}
	specs, err := spec.streamSpecs()
	if err != nil {
		t.Fatal(err)
	}
	cache := runner.NewCache()
	if _, err := (experiments.Options{Cache: cache}).StreamCell(experiments.StreamMachineConfig(), specs, window); err != nil {
		t.Fatal(err)
	}
	misses := cache.Stats().Misses

	s := New(Config{Cache: cache})
	defer s.Close()
	j, err := s.Submit([]CellSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if state, _ := j.State(); state != JobDone {
		t.Fatalf("job state %v", state)
	}
	if got := cache.Stats().Misses; got != misses {
		t.Errorf("service cell missed the primed cache (misses %d -> %d): key mismatch with the harness", misses, got)
	}
}
