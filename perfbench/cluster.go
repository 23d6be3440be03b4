package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"smtexplore/internal/cluster"
	"smtexplore/internal/service"
)

const (
	// clusterJobsPerSecond is cluster-cold's offered load, well below the
	// two cores' capacity so the latency measured is the system's, not a
	// growing backlog's. The jobs' throughput therefore follows the
	// schedule and moves only when jobs fail, are lost or drain late.
	clusterJobsPerSecond = 6
	// clusterJobCells is every job's size: single cells give the most
	// jobs for the load, so the reported p75 rests on 37 beyond it.
	clusterJobCells = 1
	// clusterCheckpointEvery turns checkpointing on for the workers'
	// kernel cells (smtd leaves it off by default).
	clusterCheckpointEvery = 25_000
	// clusterSettle is how long after the last due time jobs may finish;
	// later ones count as lost.
	clusterSettle = 20 * time.Second
	// lagBound is how late the generator may run at p99 before the run
	// is invalid: beyond it, the load offered is not the load intended.
	lagBound = 50 * time.Millisecond
)

// clusterJob is one scheduled job of the open loop.
type clusterJob struct {
	at    time.Duration // offset of the due time from the run's start
	cells []service.CellSpec
}

type clusterEnv struct {
	sh      *shared
	workers []*daemon
	wdec    []*timedWorker
	coord   *cluster.Coordinator
	csrv    *server
	reg     *registry
	client  *http.Client
	jobs    []clusterJob
	stop    chan struct{} // ends the decorators' job watchers
	watches sync.WaitGroup
}

// setupClusterCold starts two worker daemons sharing one fresh store, a
// coordinator over them, checks health, runs one warm-up job per cell
// type, and precomputes the open-loop schedule from the seed.
func setupClusterCold(cfg runCfg, i int) (env, error) {
	// The generator shares its process with the daemons. Deployed, they
	// are separate processes the kernel schedules fairly; with one Go
	// thread per core the generator would instead wait for Go's 10 ms
	// preemption of busy simulation goroutines before each submit.
	runtime.GOMAXPROCS(2 * runtime.NumCPU())
	dir := filepath.Join(cfg.dir, fmt.Sprintf("cluster-%d", i))
	reg := newRegistry()
	sh, err := openShared(filepath.Join(dir, "store"), reg)
	if err != nil {
		return nil, err
	}
	e := &clusterEnv{sh: sh, reg: reg, client: newHTTPClient(), stop: make(chan struct{})}
	e.coord = cluster.New(cluster.Config{})
	for w := range 2 {
		d, err := startDaemon(filepath.Join(dir, fmt.Sprintf("w%d", w)), sh, clusterCheckpointEvery)
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, d)
		tw := &timedWorker{Worker: cluster.NewRemote(fmt.Sprintf("w%d", w), d.srv.addr), d: d, env: e}
		e.wdec = append(e.wdec, tw)
		e.coord.AddWorker(tw)
	}
	if e.csrv, err = serve(e.coord.Handler()); err != nil {
		e.close()
		return nil, err
	}
	if err := waitHealthy(e.csrv.addr); err != nil {
		e.close()
		return nil, err
	}
	if err := runWarmup(e.client, e.csrv.addr, []service.CellSpec{warmStream, warmKernel}, cfg.oracle); err != nil {
		e.close()
		return nil, err
	}
	if e.jobs, err = clusterSchedule(cfg.seed, cfg.seconds); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// clusterSchedule precomputes the open loop from the seed. Due times
// are a Poisson process conditioned on its count over the run (sorted
// uniform offsets); every job has clusterJobCells cells, and every cell
// is unseen within the run: the kernel cells once each, the rest
// distinct stream cells (clusterStreamCells).
func clusterSchedule(seed int64, seconds float64) ([]clusterJob, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * clusterJobsPerSecond)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * seconds * float64(time.Second))
	}
	slices.Sort(at)
	cells := clusterKernelCells()
	streams, err := clusterStreamCells(rng, max(n*clusterJobCells-len(cells), 0))
	if err != nil {
		return nil, err
	}
	cells = append(cells, streams...)
	rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
	jobs := make([]clusterJob, n)
	for i := range jobs {
		jobs[i] = clusterJob{at: at[i], cells: cells[:clusterJobCells]}
		cells = cells[clusterJobCells:]
	}
	return jobs, nil
}

func (e *clusterEnv) close() {
	if e.csrv != nil {
		e.csrv.close()
	}
	e.coord.Close()
	for _, d := range e.workers {
		d.close()
	}
	close(e.stop)
	e.watches.Wait()
	e.client.CloseIdleConnections()
}

// clusterOp is one job of the open loop.
type clusterOp struct {
	t      jobTimes
	cells  int
	cycles uint64
	jt     *jobTrace
	err    error
}

// cacheStats sums the workers' cache counters.
func (e *clusterEnv) cacheStats() (hits, lookups uint64) {
	for _, d := range e.workers {
		st := d.cache.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
	}
	return hits, lookups
}

func (e *clusterEnv) measure(cfg runCfg, tr *tracer) (measurement, error) {
	top0 := e.coord.Topology()
	hits0, lookups0 := e.cacheStats()
	tierHits0 := e.sh.tier.loadHits.Load()
	e.sh.tier.stores.take()
	e.sh.tier.loads.take()
	e.sh.sink.stores.take()
	for _, w := range e.wdec {
		w.forwards.take()
	}

	ops := make([]clusterOp, len(e.jobs))
	stop := make(chan struct{})
	start := time.Now().Add(50 * time.Millisecond)
	last := start
	if len(e.jobs) > 0 {
		last = start.Add(e.jobs[len(e.jobs)-1].at)
	}
	timer := time.AfterFunc(time.Until(last)+clusterSettle, func() { close(stop) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for i, j := range e.jobs {
		due := start.Add(j.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops[i] = e.runJob(int64(i+1), due, j.cells, everyOther(tr, i), cfg.oracle, stop)
		}()
	}
	wg.Wait()

	m := newMeasurement()
	var latTraced, latPlain []float64
	var lat, lags, submitMS, queueMS, execMS, resultMS, hopMS []float64
	var unacc, total time.Duration
	var cells, calls, status int
	var cycles uint64
	end := start
	for _, op := range ops {
		lags = append(lags, ms(lag(op.t.Due, op.t.Post)))
		if !m.led.record(op.err) {
			continue
		}
		lat = append(lat, ms(dueLatency(op.t.Due, op.t.End)))
		if op.jt.tr != nil {
			latTraced = append(latTraced, lat[len(lat)-1])
		} else {
			latPlain = append(latPlain, lat[len(lat)-1])
		}
		ph, tot, un := phases(op.t)
		submitMS = append(submitMS, ms(ph["submit"]))
		queueMS = append(queueMS, ms(ph["queue"]))
		execMS = append(execMS, ms(ph["exec"]))
		resultMS = append(resultMS, ms(ph["result"]))
		hopMS = append(hopMS, ms(ph["hop"]))
		unacc += un
		total += tot
		cells += op.cells
		cycles += op.cycles
		op.jt.mu.Lock()
		calls += op.jt.calls
		status += op.jt.status
		op.jt.mu.Unlock()
		if op.t.End.After(end) {
			end = op.t.End
		}
	}
	lagP := percentile(lags, 0.99)
	fmt.Printf("generator lag p99 %.3f ms (n=%d, %d beyond)\n", lagP.Value, lagP.N, lagP.Beyond)
	if time.Duration(lagP.Value*float64(time.Millisecond)) > lagBound {
		return m, fmt.Errorf("run invalid: generator lag p99 %.1f ms exceeds its %v bound", lagP.Value, lagBound)
	}
	if m.led.OK == 0 {
		return m, fmt.Errorf("no job completed")
	}
	secs := end.Sub(start).Seconds()
	// The tail reported is the p75. The p90, printed as a diagnostic,
	// moved by half between runs when another tenant slowed the host
	// enough to push a tenth of the jobs past the first progress poll.
	p50, p75, p90 := percentile(lat, 0.5), percentile(lat, 0.75), percentile(lat, 0.9)
	fmt.Printf("cluster-cold: %d jobs, %d cells over %.2f s\n", m.led.OK, cells, secs)
	fmt.Printf("job p50 %.2f ms (n=%d), p75 %.2f ms (%d beyond), p90 %.2f ms (%d beyond), from due time\n", p50.Value, p50.N, p75.Value, p75.Beyond, p90.Value, p90.Beyond)
	if !p75.ok() {
		return m, fmt.Errorf("p75 rests on %d jobs beyond it, fewer than %d: run longer", p75.Beyond, minBeyond)
	}
	m.e2e["jobs_per_s"] = float64(m.led.OK) / secs
	m.e2e["cells_per_s"] = float64(cells) / secs
	m.e2e["sim_mcycles_per_s"] = float64(cycles) / secs / 1e6
	m.e2e["job_p50_ms"] = p50.Value
	m.e2e["job_tail_ms"] = p75.Value
	if tr == nil {
		return m, nil
	}

	layer := m.layer
	layer["gen.lag_p99_ms"] = lagP.Value
	hits1, lookups1 := e.cacheStats()
	lookups := float64(lookups1 - lookups0)
	layer["runner.mem_hit_ratio"] = float64(hits1-hits0) / lookups
	layer["runner.tier_hit_ratio"] = float64(e.sh.tier.loadHits.Load()-tierHits0) / lookups
	servicePhases(layer, submitMS, queueMS, execMS, resultMS, m.led)
	hop50, hop90 := percentile(hopMS, 0.5), percentile(hopMS, 0.9)
	layer["cluster.hop_ms_p50"] = hop50.Value
	layer["cluster.hop_ms_p90"] = hop90.Value
	var fwd []float64
	for _, w := range e.wdec {
		d, _ := w.forwards.take()
		fwd = append(fwd, d...)
	}
	layer["cluster.forward_ms_p50"] = percentile(fwd, 0.5).Value
	layer["cluster.worker_calls_per_job"] = float64(calls) / float64(m.led.OK)
	layer["cluster.status_calls_per_job"] = float64(status) / float64(m.led.OK)
	top1 := e.coord.Topology()
	layer["cluster.steals"] = float64(top1.Steals - top0.Steals)
	layer["cluster.migrations"] = float64(top1.MigratedCells - top0.MigratedCells)
	fmt.Printf("cluster: hop p50 %.2f p90 %.2f ms (%d beyond), forward p50 %.3f ms, %.2f worker calls/job, %.2f status polls/job, %v steals, %v migrated cells\n",
		hop50.Value, hop90.Value, hop90.Beyond, layer["cluster.forward_ms_p50"], layer["cluster.worker_calls_per_job"], layer["cluster.status_calls_per_job"], layer["cluster.steals"], layer["cluster.migrations"])

	stores, written := e.sh.tier.stores.take()
	s50, s99 := percentile(stores, 0.5), percentile(stores, 0.99)
	layer["store.store_ms_p50"] = s50.Value
	layer["store.store_ms_p99"] = s99.Value
	layer["store.bytes_written"] = float64(written)
	loads, _ := e.sh.tier.loads.take()
	storeLoads(layer, loads)
	ck, ckBytes := e.sh.sink.stores.take()
	kernelCells := float64(len(clusterKernelCells()))
	if len(ck) > 0 {
		layer["checkpoint.store_ms_p50"] = percentile(ck, 0.5).Value
	}
	layer["checkpoint.writes_per_cell"] = float64(len(ck)) / kernelCells
	layer["checkpoint.bytes_per_cell"] = float64(ckBytes) / kernelCells
	fmt.Printf("store: %d puts p50 %.3f p99 %.3f ms (%d beyond), %d bytes; checkpoints: %d writes p50 %.3f ms, %d bytes over %v kernel cells\n",
		len(stores), s50.Value, s99.Value, s99.Beyond, written, len(ck), layer["checkpoint.store_ms_p50"], ckBytes, kernelCells)
	layer["phase.unaccounted_frac"] = float64(unacc) / float64(total)
	layer["trace.overhead_frac"] = percentile(latTraced, 0.5).Value/percentile(latPlain, 0.5).Value - 1
	return m, nil
}

// runJob submits one job to the coordinator at its due time, follows it
// through the coordinator's events, fetches its result and checks it.
func (e *clusterEnv) runJob(n int64, due time.Time, cells []service.CellSpec, tr *tracer, o *oracle, stop <-chan struct{}) clusterOp {
	jt := &jobTrace{tr: tr, job: n, root: tr.reserve()}
	e.reg.register(jt, cells)
	op := clusterOp{cells: len(cells), jt: jt}
	t := &op.t
	t.Due = due
	t.Post = time.Now()
	id, err := submit(e.client, e.csrv.addr, cells, fmt.Sprintf("cluster-%d", n))
	t.Ack = time.Now()
	if err != nil {
		op.err = err
		return op
	}
	job, ok := e.coord.Job(id)
	if !ok {
		op.err = fmt.Errorf("job %s unknown after ack", id)
		return op
	}
	if _, t.CoordEnd, ok = watch(job, stop); !ok {
		op.err = errLost
		return op
	}
	t.Get = time.Now()
	res, err := fetchResult(e.client, e.csrv.addr, id)
	t.End = time.Now()
	if err != nil {
		op.err = err
		return op
	}
	if op.cycles, op.err = checkJob(cells, res, o); op.err != nil {
		return op
	}
	// The critical group — the forward that finished last — sets the
	// worker-side phases. Each group's watcher may still be on its way
	// to recording the end it saw.
	jt.mu.Lock()
	groups := slices.Clone(jt.groups)
	jt.mu.Unlock()
	for _, g := range groups {
		select {
		case <-g.seen:
		case <-stop:
		}
	}
	jt.mu.Lock()
	var crit *group
	for _, g := range jt.groups {
		if crit == nil || g.done.After(crit.done) {
			crit = g
		}
	}
	if crit != nil && !crit.done.IsZero() {
		t.WSubmit, t.Running, t.Done = crit.sub, crit.running, crit.done
	}
	jt.mu.Unlock()
	if t.WSubmit.IsZero() {
		op.err = fmt.Errorf("job %s: no completed forward observed", id)
		return op
	}
	tr.record(jt.root, "job", 0, n, t.Due, t.End)
	tr.record(tr.reserve(), "gen.lag", jt.root, n, t.Due, t.Post)
	tr.record(tr.reserve(), "service.submit", jt.root, n, t.Post, t.Ack)
	tr.record(tr.reserve(), "service.result", jt.root, n, t.Get, t.End)
	return op
}

// timedWorker is the cluster-layer decorator: the cluster.Worker the
// coordinator is given, timing and counting every call it makes on a
// job's behalf and watching each forwarded job on its worker daemon.
type timedWorker struct {
	cluster.Worker
	d        *daemon
	env      *clusterEnv
	forwards durations
}

// owner finds the job behind a remote job ID.
func (w *timedWorker) owner(id string) *jobTrace {
	w.env.reg.mu.Lock()
	defer w.env.reg.mu.Unlock()
	return w.env.reg.byWork[w.Name()+"/"+id]
}

// count charges one worker call (a status poll when status) to jt.
func count(jt *jobTrace, status bool) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.calls++
	if status {
		jt.status++
	}
}

func (w *timedWorker) Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error) {
	var jt *jobTrace
	if len(req.Cells) > 0 {
		jt = w.env.reg.byCell(req.Cells[0])
	}
	t0 := time.Now()
	id, err := w.Worker.Submit(ctx, req, idemKey)
	t1 := time.Now()
	w.forwards.add(t1.Sub(t0), 0)
	w.env.reg.span("cluster.forward", jt, t0, t1)
	count(jt, false)
	if err != nil || jt == nil {
		return id, err
	}
	g := &group{sub: t0, seen: make(chan struct{})}
	jt.mu.Lock()
	jt.groups = append(jt.groups, g)
	jt.mu.Unlock()
	w.env.reg.mu.Lock()
	w.env.reg.byWork[w.Name()+"/"+id] = jt
	w.env.reg.mu.Unlock()
	job, ok := w.d.svc.Job(id)
	if !ok {
		close(g.seen)
		return id, nil
	}
	w.env.watches.Add(1)
	go func() {
		defer w.env.watches.Done()
		defer close(g.seen)
		running, done, ok := watch(job, w.env.stop)
		if ok {
			jt.mu.Lock()
			g.running, g.done = running, done
			jt.mu.Unlock()
		}
	}()
	return id, nil
}

func (w *timedWorker) Status(ctx context.Context, id string) (service.JobStatus, error) {
	jt := w.owner(id)
	t0 := time.Now()
	st, err := w.Worker.Status(ctx, id)
	w.env.reg.span("cluster.status", jt, t0, time.Now())
	count(jt, true)
	return st, err
}

func (w *timedWorker) Result(ctx context.Context, id string) (service.JobResult, error) {
	jt := w.owner(id)
	t0 := time.Now()
	res, err := w.Worker.Result(ctx, id)
	w.env.reg.span("cluster.result", jt, t0, time.Now())
	count(jt, false)
	return res, err
}

func (w *timedWorker) Cancel(ctx context.Context, id string) error {
	jt := w.owner(id)
	t0 := time.Now()
	err := w.Worker.Cancel(ctx, id)
	w.env.reg.span("cluster.cancel", jt, t0, time.Now())
	count(jt, false)
	return err
}
