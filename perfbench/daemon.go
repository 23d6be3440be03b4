package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtexplore/internal/checkpoint"
	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
)

// Daemons are configured the way smtd configures itself by default,
// with a disk store behind the breaker and the journal on.
const (
	daemonJobs         = 2
	daemonQueue        = 16
	daemonCacheEntries = 4096
	storeMaxBytes      = 256 << 20
	breakerThreshold   = 5
	breakerCooldown    = 5 * time.Second
)

// server is an HTTP handler served on a loopback port.
type server struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and waits for the serving goroutine.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx) // a timeout leaves only idle keep-alives behind
	<-s.done
}

// shared is the disk store one or more daemons use, with the
// benchmark's timing decorators in front of it.
type shared struct {
	st   *store.Store
	br   *store.Breaker
	tier *timedTier
	sink *timedSink
}

func openShared(dir string, reg *registry) (*shared, error) {
	st, err := store.Open(dir, storeMaxBytes)
	if err != nil {
		return nil, err
	}
	br := store.NewBreaker(st, breakerThreshold, breakerCooldown)
	return &shared{st: st, br: br, tier: &timedTier{under: br, reg: reg}, sink: &timedSink{under: br, reg: reg}}, nil
}

// daemon is one in-process smtd.
type daemon struct {
	svc   *service.Service
	cache *runner.Cache
	srv   *server
}

func startDaemon(dir string, sh *shared, checkpointEvery uint64) (*daemon, error) {
	jl, err := service.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	cache := runner.NewCache().WithLimit(daemonCacheEntries).WithTier(sh.tier)
	svc := service.New(service.Config{
		Workers:         runtime.NumCPU(),
		MaxActive:       daemonJobs,
		QueueDepth:      daemonQueue,
		Cache:           cache,
		Store:           sh.st,
		Breaker:         sh.br,
		Journal:         jl,
		CheckpointEvery: checkpointEvery,
		CheckpointSink:  sh.sink,
		StoreLedger:     store.NewLedger(),
	})
	srv, err := serve(svc.Handler())
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{svc: svc, cache: cache, srv: srv}
	if err := waitHealthy(srv.addr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) close() {
	d.srv.close()
	d.svc.Close()
}

// httpClient carries every request of a run: at most two connections
// per host, one per client or generator connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
}

func waitHealthy(addr string) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submit posts a batch and returns the job ID from the 202 response.
func submit(c *http.Client, addr string, cells []service.CellSpec, idemKey string) (string, error) {
	body, err := json.Marshal(service.SubmitRequest{Cells: cells})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", idemKey)
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return "", errRefused{resp.StatusCode}
	default:
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, msg)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return st.ID, nil
}

// fetchResult gets a terminal job's results.
func fetchResult(c *http.Client, addr, id string) (service.JobResult, error) {
	var res service.JobResult
	resp, err := c.Get("http://" + addr + "/v1/jobs/" + id + "/result")
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("result %s: HTTP %d: %s", id, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, fmt.Errorf("result %s: %w", id, err)
	}
	return res, nil
}

// watch follows a job's events and returns when it is terminal, with
// the times its first "running" event and its terminal state were
// observed. Events already present when watch starts are observed at
// once. ok is false when stop closes first.
func watch(j *service.Job, stop <-chan struct{}) (running, done time.Time, ok bool) {
	seq := 0
	for {
		evs, notify, terminal := j.EventsSince(seq)
		now := time.Now()
		seq += len(evs)
		for _, ev := range evs {
			if ev.Type == "job" && ev.State == service.JobRunning && running.IsZero() {
				running = now
			}
		}
		if terminal {
			if running.IsZero() {
				running = now
			}
			return running, now, true
		}
		select {
		case <-notify:
		case <-stop:
			return running, time.Time{}, false
		}
	}
}

// jobTrace ties a job's cells to its root span, so decorators called
// deep inside a daemon can place their spans under the right job.
type jobTrace struct {
	tr   *tracer // nil for an untraced job
	job  int64   // job number, also the trace lane
	root int64   // the job's root span

	mu     sync.Mutex
	groups []*group // cluster: forwarded groups, in forward order
	calls  int      // cluster: worker calls made for the job
	status int      // cluster: of which status polls
}

// group is one forward of (part of) a job to a worker.
type group struct {
	sub, running, done time.Time
	seen               chan struct{} // closed once running and done are final
}

// registry maps cell content keys (and cluster remote job IDs) to the
// job that submitted them.
type registry struct {
	mu     sync.Mutex
	keys   map[string]string // cell label → content key, computed once
	byKey  map[string]*jobTrace
	byWork map[string]*jobTrace // worker name + remote job ID
}

func newRegistry() *registry {
	return &registry{keys: map[string]string{}, byKey: map[string]*jobTrace{}, byWork: map[string]*jobTrace{}}
}

// keyLocked is sp's content key; hashing a machine configuration costs
// tens of microseconds, so each cell's key is computed once.
func (r *registry) keyLocked(sp service.CellSpec) string {
	l := sp.Label()
	k, ok := r.keys[l]
	if !ok {
		k = cellKey(sp)
		r.keys[l] = k
	}
	return k
}

// cellKey is the content key the cell is cached and stored under.
func cellKey(sp service.CellSpec) string {
	if sp.Type == service.TypeStream {
		specs, err := streamSpecs(sp)
		if err != nil {
			return ""
		}
		return experiments.StreamCellKey(experiments.StreamMachineConfig(), specs, sp.Window)
	}
	mode, err := kernelMode(sp)
	if err != nil {
		return ""
	}
	k, _ := experiments.KernelCellKey(sp.Kernel, sp.Size, mode)
	return k
}

// register records jt as the owner of its cells' keys; a key keeps its
// first owner, the job whose lookup reaches the store.
func (r *registry) register(jt *jobTrace, cells []service.CellSpec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sp := range cells {
		if k := r.keyLocked(sp); r.byKey[k] == nil {
			r.byKey[k] = jt
		}
	}
}

func (r *registry) byCellKey(k string) *jobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byKey[k]
}

// byCell finds the job that registered sp.
func (r *registry) byCell(sp service.CellSpec) *jobTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byKey[r.keyLocked(sp)]
}

// span records a decorator's call made on a traced job's behalf.
func (r *registry) span(name string, jt *jobTrace, start, end time.Time) {
	if jt != nil && jt.tr != nil {
		jt.tr.record(jt.tr.reserve(), name, jt.root, jt.job, start, end)
	}
}

// durations is a concurrency-safe sample of call durations.
type durations struct {
	mu    sync.Mutex
	d     []float64 // ms
	bytes int64
}

func (s *durations) add(d time.Duration, bytes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d = append(s.d, ms(d))
	s.bytes += int64(bytes)
}

// take returns and clears the sample.
func (s *durations) take() ([]float64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, b := s.d, s.bytes
	s.d, s.bytes = nil, 0
	return d, b
}

// timedTier is the store-layer decorator: the runner.Tier the daemons'
// caches read through and write through, timing each call.
type timedTier struct {
	under         *store.Breaker
	reg           *registry
	loads, stores durations
	loadHits      atomic.Int64
}

func (t *timedTier) Load(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := t.under.Load(key)
	t1 := time.Now()
	t.loads.add(t1.Sub(t0), len(data))
	if ok {
		t.loadHits.Add(1)
	}
	t.reg.span("store.load", t.reg.byCellKey(key), t0, t1)
	return data, ok
}

func (t *timedTier) Store(key string, data []byte) {
	t0 := time.Now()
	t.under.Store(key, data)
	t1 := time.Now()
	t.stores.add(t1.Sub(t0), len(data))
	t.reg.span("store.store", t.reg.byCellKey(key), t0, t1)
}

// timedSink is the checkpoint-layer decorator over the same store.
type timedSink struct {
	under  *store.Breaker
	reg    *registry
	stores durations
}

// owner maps a checkpoint key back to the cell's job.
func (s *timedSink) owner(key string) *jobTrace {
	return s.reg.byCellKey(strings.TrimPrefix(key, checkpoint.SinkKey("")))
}

func (s *timedSink) Load(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.under.Load(key)
	s.reg.span("checkpoint.load", s.owner(key), t0, time.Now())
	return data, ok
}

func (s *timedSink) Store(key string, data []byte) {
	t0 := time.Now()
	s.under.Store(key, data)
	t1 := time.Now()
	s.stores.add(t1.Sub(t0), len(data))
	s.reg.span("checkpoint.store", s.owner(key), t0, t1)
}

func (s *timedSink) Delete(key string) {
	t0 := time.Now()
	s.under.Delete(key)
	s.reg.span("checkpoint.delete", s.owner(key), t0, time.Now())
}

// runWarmup runs one untimed job of the warm-up cells and checks it.
func runWarmup(c *http.Client, addr string, cells []service.CellSpec, o *oracle) error {
	id, err := submit(c, addr, cells, "warmup")
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := fetchResult(c, addr, id)
		if err == nil {
			_, err = checkJob(cells, res, o)
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkJob verifies a job's results cell by cell against the oracle and
// sums the simulated cycles it delivered.
func checkJob(cells []service.CellSpec, res service.JobResult, o *oracle) (uint64, error) {
	if res.State != service.JobDone || len(res.Cells) != len(cells) {
		return 0, fmt.Errorf("job %s: state %s, %d/%d cells: %s", res.ID, res.State, len(res.Cells), len(cells), res.Error)
	}
	var cyc uint64
	for k, sp := range cells {
		r := res.Cells[k]
		if r.State != service.CellDone {
			return 0, fmt.Errorf("job %s cell %d: %s: %s", res.ID, k, r.State, r.Error)
		}
		if err := o.checkCell(sp, r); err != nil {
			return 0, err
		}
		cyc += simCycles(sp, outcome{CPI: r.CPI, Kernel: r.Kernel})
	}
	return cyc, nil
}

// servicePhases fills the service-layer figures from per-job phases.
func servicePhases(layer map[string]float64, submitMS, queueMS, execMS, resultMS []float64, led ledger) {
	layer["service.submit_ms_p50"] = percentile(submitMS, 0.5).Value
	p99 := percentile(submitMS, 0.99)
	layer["service.submit_ms_p99"] = p99.Value
	layer["service.queue_wait_ms"] = percentile(queueMS, 0.5).Value
	layer["service.exec_ms_p50"] = percentile(execMS, 0.5).Value
	layer["service.result_ms_p50"] = percentile(resultMS, 0.5).Value
	layer["service.refused_frac"] = float64(led.Refused) / float64(led.Attempted)
	fmt.Printf("service: submit p50 %.3f p99 %.3f ms (n=%d, %d beyond), queue p50 %.3f, exec p50 %.3f, result p50 %.3f ms\n",
		layer["service.submit_ms_p50"], p99.Value, p99.N, p99.Beyond, layer["service.queue_wait_ms"], layer["service.exec_ms_p50"], layer["service.result_ms_p50"])
}

// storeLoads fills the store read figures from tier Load durations.
func storeLoads(layer map[string]float64, loads []float64) {
	us := make([]float64, len(loads))
	for i, d := range loads {
		us[i] = d * 1000
	}
	p50, p99 := percentile(us, 0.5), percentile(us, 0.99)
	if p50.N > 0 {
		layer["store.load_us_p50"] = p50.Value
		layer["store.load_us_p99"] = p99.Value
	}
	layer["store.loads"] = float64(len(loads))
	fmt.Printf("store loads: n=%d p50 %.1f us, p99 %.1f us (%d beyond)\n", p50.N, p50.Value, p99.Value, p99.Beyond)
}
