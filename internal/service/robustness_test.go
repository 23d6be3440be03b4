package service

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/faultinject"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
)

// armPlan arms a fault plan for the test and disarms on cleanup. Tests
// using it must not run in parallel (the injector is process-wide).
func armPlan(t *testing.T, rules ...faultinject.Rule) {
	t.Helper()
	in, err := faultinject.New(faultinject.Plan{Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(in)
	t.Cleanup(faultinject.Disarm)
}

func openJournal(t *testing.T) *Journal {
	t.Helper()
	jl, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// A journal left behind by a dead daemon is replayed on startup: live
// records re-run under their original IDs, terminal records stay put,
// and the ID sequence continues past everything journaled.
func TestJournalRecoveryReRunsLostJobs(t *testing.T) {
	jl := openJournal(t)
	// What a crash leaves behind: one job that finished, one that did not.
	for _, rec := range []Record{
		{ID: "j0001", Specs: []CellSpec{validSpec()}, State: JobDone, Created: time.Now()},
		{ID: "j0002", Specs: []CellSpec{validSpec()}, State: JobQueued, Created: time.Now()},
	} {
		if err := jl.write(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := New(Config{Workers: 1, Journal: jl})
	defer s.Close()
	j, ok := s.Job("j0002")
	if !ok {
		t.Fatal("journaled live job not re-registered after restart")
	}
	waitDone(t, j)
	if state, msg := j.State(); state != JobDone {
		t.Fatalf("recovered job: %s / %s", state, msg)
	}
	if _, ok := s.Job("j0001"); ok {
		t.Error("terminal record was re-registered")
	}
	if m := s.Snapshot(); m.JobsRecovered != 1 || m.JobsAbandoned != 0 {
		t.Errorf("recovered/abandoned = %d/%d, want 1/0", m.JobsRecovered, m.JobsAbandoned)
	}

	// New submissions continue past the journaled IDs.
	nj, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID != "j0003" {
		t.Errorf("post-recovery ID %s, want j0003", nj.ID)
	}

	// The recovered job's terminal state was journaled, so a second
	// restart does not run it again.
	recs, err := jl.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.ID == "j0002" && !rec.Terminal() {
			t.Errorf("recovered job still journaled as %q", rec.State)
		}
	}
}

// A journaled job that cannot be re-admitted (its specs no longer
// validate) is registered failed-with-cause instead of vanishing.
func TestJournalRecoveryAbandonsInvalidRecords(t *testing.T) {
	jl := openJournal(t)
	bad := CellSpec{Type: TypeStream, Streams: []StreamSpec{{Kind: "fadd"}}, Observe: true}
	if err := jl.write(Record{ID: "j0001", Specs: []CellSpec{bad}, State: JobQueued, Created: time.Now()}); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Journal: jl}) // no ArtifactDir, so Observe fails validation
	defer s.Close()
	j, ok := s.Job("j0001")
	if !ok {
		t.Fatal("abandoned job not registered")
	}
	waitDone(t, j)
	state, msg := j.State()
	if state != JobFailed || !strings.Contains(msg, "not recovered after restart") {
		t.Fatalf("abandoned job: %s / %q, want failed with cause", state, msg)
	}
	for _, c := range j.Results() {
		if c.State != CellFailed {
			t.Errorf("cell %d state %q, want failed", c.Index, c.State)
		}
	}
	if m := s.Snapshot(); m.JobsAbandoned != 1 {
		t.Errorf("JobsAbandoned = %d, want 1", m.JobsAbandoned)
	}
}

// A refused journal write refuses the submission (ErrJournal -> 503):
// the daemon never acknowledges a job it could lose.
func TestSubmitRefusedWhenJournalFails(t *testing.T) {
	jl := openJournal(t)
	s := New(Config{Journal: jl})
	defer s.Close()

	armPlan(t, faultinject.Rule{Point: faultinject.PointJournalWrite, Action: faultinject.ActionError, Count: 1})
	if _, err := s.Submit([]CellSpec{validSpec()}); !errors.Is(err, ErrJournal) {
		t.Fatalf("submit under journal fault = %v, want ErrJournal", err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("%d jobs registered after refused submit, want 0", got)
	}
	// Fault exhausted: the next submit is accepted and journaled.
	j, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j0001" {
		t.Errorf("ID after rollback %s, want j0001 (sequence not burned)", j.ID)
	}
	if st := jl.Stats(); st.Errors != 1 || st.Writes == 0 {
		t.Errorf("journal stats %+v, want 1 error and some writes", st)
	}
}

// An injected admission fault maps to queue-full backpressure, which is
// how chaos runs exercise the client's 429 retry path on demand.
func TestQueueAdmitFaultIsBackpressure(t *testing.T) {
	s := stubService(Config{}, instantDone)
	defer s.Close()
	armPlan(t, faultinject.Rule{Point: faultinject.PointQueueAdmit, Action: faultinject.ActionError, Count: 1})
	if _, err := s.Submit([]CellSpec{validSpec()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit under admit fault = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit([]CellSpec{validSpec()}); err != nil {
		t.Fatalf("submit after fault window: %v", err)
	}
	if m := s.Snapshot(); m.SubmitRejectedFull != 1 {
		t.Errorf("SubmitRejectedFull = %d, want 1", m.SubmitRejectedFull)
	}
}

// The watchdog fails a cell that blows its budget (here: an injected
// stall) without taking the job's siblings or the daemon with it.
func TestWatchdogFailsStuckCell(t *testing.T) {
	// The healthy sibling must finish well inside the budget even under
	// -race, so it simulates a tiny window while the budget stays
	// generous and the stall far exceeds it.
	armPlan(t, faultinject.Rule{Point: faultinject.PointExecCell, Action: faultinject.ActionLatency, LatencyMS: 20000, Count: 1})
	s := New(Config{Workers: 2, CellTimeout: 2 * time.Second})
	defer s.Close()

	j, err := s.Submit([]CellSpec{
		{Type: TypeStream, Window: 2000, Streams: []StreamSpec{{Kind: "fadd"}}},
		{Type: TypeStream, Window: 2000, Streams: []StreamSpec{{Kind: "fmul"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	state, msg := j.State()
	if state != JobFailed || !strings.Contains(msg, "watchdog") {
		t.Fatalf("job %s / %q, want failed by watchdog", state, msg)
	}
	var timedOut, done int
	for _, c := range j.Results() {
		switch {
		case c.State == CellFailed && strings.Contains(c.Error, "watchdog"):
			timedOut++
		case c.State == CellDone:
			done++
		}
	}
	if timedOut != 1 || done != 1 {
		t.Errorf("timedOut/done = %d/%d, want 1/1 (stall isolated to one cell)", timedOut, done)
	}
	if m := s.Snapshot(); m.CellsTimedOut != 1 {
		t.Errorf("CellsTimedOut = %d, want 1", m.CellsTimedOut)
	}
}

// An injected cell panic is recovered by the same isolation as a real
// one: the cell fails, the daemon keeps serving.
func TestInjectedPanicIsolated(t *testing.T) {
	armPlan(t, faultinject.Rule{Point: faultinject.PointExecCell, Action: faultinject.ActionPanic, Count: 1})
	s := New(Config{Workers: 1})
	defer s.Close()

	j, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	state, msg := j.State()
	if state != JobFailed || !strings.Contains(msg, "panicked") {
		t.Fatalf("job %s / %q, want failed with panic message", state, msg)
	}
	j2, err := s.Submit([]CellSpec{validSpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if state, _ := j2.State(); state != JobDone {
		t.Fatalf("job after panic: %s, want done", state)
	}
}

// A duplicate submission under the same idempotency key returns the
// live job instead of enqueuing a second copy; a terminal job releases
// the key.
func TestIdempotentSubmit(t *testing.T) {
	release := make(chan struct{})
	s := stubService(Config{}, func(ctx context.Context, spec CellSpec, _ string) CellResult {
		<-release
		return CellResult{Label: spec.Label(), State: CellDone}
	})
	defer s.Close()

	j1, err := s.SubmitIdem([]CellSpec{validSpec()}, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.SubmitIdem([]CellSpec{validSpec()}, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Fatalf("duplicate submit created %s, want dedup onto %s", j2.ID, j1.ID)
	}
	if other, err := s.SubmitIdem([]CellSpec{validSpec()}, "key-2"); err != nil || other.ID == j1.ID {
		t.Fatalf("different key: %v / %v, want a distinct job", other, err)
	}
	close(release)
	waitDone(t, j1)
	j3, err := s.SubmitIdem([]CellSpec{validSpec()}, "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j1.ID {
		t.Error("terminal job still holds its idempotency key")
	}
	if m := s.Snapshot(); m.IdemHits != 1 {
		t.Errorf("IdemHits = %d, want 1", m.IdemHits)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    int // -1 when the frame carried no id
	event string
	data  string
}

// readSSEFrames reads frames from an open stream until it ends or n
// frames arrived (n <= 0: until EOF).
func readSSEFrames(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	cur := sseEvent{id: -1}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatal(err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			cur = sseEvent{id: -1}
			if n > 0 && len(out) == n {
				return out
			}
		}
	}
}

// A client that loses its SSE stream mid-job and reconnects with
// Last-Event-ID sees every event exactly once: replay after the marker,
// then live follow, no duplicates, no gaps.
func TestHTTPEventsSSEReconnect(t *testing.T) {
	gate := make(chan struct{})
	s := stubService(Config{Workers: 1, MaxActive: 1}, func(ctx context.Context, spec CellSpec, _ string) CellResult {
		<-gate
		return CellResult{Label: spec.Label(), State: CellDone}
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	st := decodeBody[JobStatus](t, postJSON(t, srv.URL+"/v1/jobs", SubmitRequest{
		Cells: []CellSpec{validSpec(), validSpec(), validSpec()},
	}))
	j, _ := s.Job(st.ID)

	// First connection: let one cell finish, read its frames, then drop
	// the stream mid-job.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // release cell 0
	// job-running + cell-0 events are now guaranteed to exist.
	first := readSSEFrames(t, bufio.NewReader(resp.Body), 2)
	resp.Body.Close() // dropped mid-stream
	lastID := -1
	for _, ev := range first {
		if ev.id > lastID {
			lastID = ev.id
		}
	}
	if lastID < 0 {
		t.Fatalf("no event ids in first connection: %+v", first)
	}

	// Finish the job while disconnected.
	gate <- struct{}{}
	gate <- struct{}{}
	waitDone(t, j)

	// Reconnect where we left off.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.Itoa(lastID))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	second := readSSEFrames(t, bufio.NewReader(resp2.Body), 0)

	// Stitch the two connections together: ids must be exactly
	// 0..max with no duplicates, ending in an id-less end event.
	seen := map[int]int{}
	maxID := -1
	for _, ev := range append(append([]sseEvent{}, first...), second...) {
		if ev.event == "end" {
			if ev.id != -1 {
				t.Errorf("end event carries id %d, want none", ev.id)
			}
			continue
		}
		seen[ev.id]++
		if ev.id > maxID {
			maxID = ev.id
		}
	}
	for id := 0; id <= maxID; id++ {
		if seen[id] != 1 {
			t.Errorf("event id %d seen %d times across reconnect, want exactly once", id, seen[id])
		}
	}
	if last := second[len(second)-1]; last.event != "end" || !strings.Contains(last.data, `"state":"done"`) {
		t.Errorf("reconnected stream ended with %+v, want end/done", last)
	}

	// A resume from the final event id replays nothing — just the end
	// frame (?since= is the header-less spelling of the same thing).
	resp3, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events?since=" + strconv.Itoa(maxID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tail := readSSEFrames(t, bufio.NewReader(resp3.Body), 0)
	if len(tail) != 1 || tail[0].event != "end" {
		t.Errorf("resume past the last event returned %+v, want only the end frame", tail)
	}
}

// While the store breaker is open, /healthz reports degraded (but 200 —
// the daemon still serves from memory) and each poll probes the disk,
// so health checking alone drives recovery.
func TestHTTPHealthzDegradedAndRecovery(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The cooldown must outlast the first /healthz round trip: that
	// request's embedded Probe would otherwise close the breaker before
	// the "degraded" assertion reads it.
	b := store.NewBreaker(st, 1, 500*time.Millisecond)
	cache := runner.NewCache().WithTier(b)
	s := stubService(Config{Cache: cache, Store: st, Breaker: b}, instantDone)
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	armPlan(t, faultinject.Rule{Point: faultinject.PointStoreWrite, Action: faultinject.ActionError, Count: 1})
	b.Store("k", []byte("v")) // trips (threshold 1)
	if !b.Degraded() {
		t.Fatal("breaker not degraded after injected write failure")
	}

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	if code, body := get(); code != http.StatusOK || body != "degraded" {
		t.Fatalf("healthz while degraded: %d %q, want 200 degraded", code, body)
	}

	// The fault window is exhausted: once the cooldown passes, polling
	// healthz must flip it back to ok via the embedded probe.
	deadline := time.After(5 * time.Second)
	for {
		if _, body := get(); body == "ok" {
			break
		}
		select {
		case <-deadline:
			t.Fatal("healthz never recovered to ok")
		case <-time.After(5 * time.Millisecond):
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"smtd_store_degraded 0",
		"smtd_store_breaker_trips_total 1",
		"smtd_store_io_errors_total",
		"smtd_store_corrupt_total",
		"smtd_store_evictions_total",
		"smtd_goroutines",
		"smtd_faults_injected_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
