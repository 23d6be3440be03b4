package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"smtexplore/internal/checkpoint"
	"smtexplore/internal/experiments"
	"smtexplore/internal/faultinject"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
	"smtexplore/internal/tenant"
)

// Submission errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrQueueFull reports backpressure: the bounded job queue is at
	// capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports a service that has stopped intake for
	// shutdown (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrJournal reports a submission refused because its journal
	// record could not be persisted: accepting a job the daemon could
	// lose on crash would break the durability contract (HTTP 503 so
	// the client retries; it matches ErrUnavailable).
	ErrJournal = Unavailable("service: journal write failed")
	// ErrShedLoad reports the AIMD limiter shedding a submission
	// because measured queue wait is above target (HTTP 429 +
	// Retry-After).
	ErrShedLoad = errors.New("service: shedding load, queue wait above target")
	// ErrDeadlineExpired reports a submission whose deadline had
	// already passed at admission (HTTP 429: running it would only
	// waste the workers the deadline was meant to protect).
	ErrDeadlineExpired = errors.New("service: deadline already expired")
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrent simulation cells within one job
	// (≤0 → GOMAXPROCS), exactly like the CLIs' -workers flag.
	Workers int
	// MaxActive is the number of jobs executing concurrently
	// (≤0 → 1).
	MaxActive int
	// QueueDepth bounds jobs accepted beyond the active ones; a full
	// queue rejects submissions with ErrQueueFull (≤0 → 16).
	QueueDepth int
	// Cache is the shared result cache (nil → a fresh unbounded one).
	// Give it a WithLimit bound for long-lived daemons and a WithTier
	// store for persistence.
	Cache *runner.Cache
	// Store, when set, is reported in /metrics (hit/miss/evict/bytes).
	// It should be the same store attached to Cache as its tier.
	Store *store.Store
	// ArtifactDir, when set, enables observe cells: per-cell obs
	// artifacts land under ArtifactDir/<job>/cell-<i>/.
	ArtifactDir string
	// Breaker, when set, is the circuit breaker wrapped around Store
	// (and attached to Cache as its tier). /healthz reports "degraded"
	// while it is open and probes it toward recovery; /metrics exposes
	// its state and counters.
	Breaker *store.Breaker
	// Journal, when set, makes accepted jobs crash-safe: every submit
	// is journaled before it is acknowledged, terminal states are
	// recorded, and New re-runs (or marks failed-with-cause) any job
	// the previous process lost mid-flight.
	Journal *Journal
	// CellTimeout, when > 0, arms a per-cell watchdog: a cell that has
	// not returned within this budget is failed (and its goroutine
	// abandoned to finish in the background) so one wedged cell cannot
	// stall its job, let alone the daemon. With checkpointing enabled
	// the watchdog first requests a cooperative stop and grants
	// StopGrace for a final checkpoint, so a retried cell resumes
	// instead of restarting.
	CellTimeout time.Duration
	// StopGrace bounds how long the watchdog waits for a stopping cell
	// to park its final checkpoint before abandoning it (≤0 → 2s).
	StopGrace time.Duration
	// CheckpointEvery, when > 0, makes kernel cells pausable: every
	// CheckpointEvery simulated cycles the cell snapshots its machine
	// into CheckpointSink and polls for a cooperative stop. This is
	// what turns preemption, drain and watchdog timeouts from "lose
	// the work" into "resume from the last pause point".
	CheckpointEvery uint64
	// CheckpointSink stores cell checkpoints; nil with CheckpointEvery
	// set falls back to an in-memory sink (resumes survive preemption
	// but not the process). Point it at the disk store (or its
	// breaker) to survive crashes.
	CheckpointSink checkpoint.Sink
	// QueueWaitTarget, when > 0, arms the AIMD admission limiter:
	// queue waits above the target halve the allowed outstanding jobs,
	// waits within it add one back, and submissions beyond the limit
	// are shed with ErrShedLoad.
	QueueWaitTarget time.Duration
	// Tenants, when set, arms per-tenant quotas (refusals carry a
	// QuotaError with the exhausted quota's cause) and fair-share
	// weights for the queue's deficit round-robin. Nil means no
	// quotas and weight 1 for everyone — single-tenant behavior.
	Tenants *tenant.Registry
	// StoreLedger, when set, attributes store traffic (bytes written
	// and served) to tenants via the per-cell meter; /metrics exposes
	// the rows. Nil records nothing.
	StoreLedger *store.Ledger
	// AgeAfter bounds starvation: a queued job that has waited longer
	// is served next regardless of priority. 0 means the 30s default;
	// negative disables aging entirely.
	AgeAfter time.Duration
	// AllowFaultAPI opens POST/DELETE /v1/faults, letting chaos
	// harnesses arm faultinject plans over HTTP mid-run. Off by default:
	// production daemons must not expose remote fault injection.
	AllowFaultAPI bool
}

// Service owns the job registry, the bounded queue and the worker pool.
// Create with New, serve its Handler, stop with Drain (graceful) or
// Close (abandon).
type Service struct {
	cfg     Config
	baseCtx context.Context
	abort   context.CancelFunc
	queue   *jobQueue
	limiter *aimd // nil unless QueueWaitTarget > 0
	ckpt    *experiments.Checkpointing
	ckStats *experiments.CheckpointStats
	workers sync.WaitGroup
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	idem     map[string]string // Idempotency-Key -> job ID
	seq      int
	draining bool
	active   int
	// Per-tenant accounting: live (queued + running) cells behind the
	// MaxActiveCells quota, and the counter rows behind /metrics
	// tenant labels.
	tenantCells map[string]int
	tenants     map[string]*tenantStats

	// Terminal-outcome counters for /metrics.
	jobsDone, jobsFailed, jobsCancelled    uint64
	cellsDone, cellsFailed, cellsCancelled uint64
	// Robustness counters for /metrics.
	rejectedFull, rejectedDraining uint64
	idemHits                       uint64
	cellsTimedOut                  uint64
	jobsRecovered, jobsAbandoned   uint64
	// Checkpoint/overload counters for /metrics.
	preemptions          uint64
	checkpointsOnTimeout uint64
	shedDeadline         uint64
	shedQuota            uint64
	queueWaitSeconds     float64
	queueWaitPops        uint64
	queueWaitEWMA        float64 // seconds; the cluster's steal signal

	// runCell is the cell executor; tests substitute it to make queue
	// and drain behaviour deterministic. ctl (nil when checkpointing
	// is off) carries the cell's preemption wiring.
	runCell func(ctx context.Context, spec CellSpec, artifactDir string, ctl *cellCtl) CellResult
}

// New starts a service with cfg.MaxActive workers. The caller owns the
// lifecycle: Drain or Close it when done.
func New(cfg Config) *Service {
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.Cache == nil {
		cfg.Cache = runner.NewCache()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:         cfg,
		baseCtx:     ctx,
		abort:       cancel,
		queue:       newJobQueue(cfg.QueueDepth),
		started:     time.Now(),
		jobs:        make(map[string]*Job),
		idem:        make(map[string]string),
		tenantCells: make(map[string]int),
		tenants:     make(map[string]*tenantStats),
	}
	s.queue.weightOf = cfg.Tenants.Weight // nil-receiver-safe: weight 1
	switch {
	case cfg.AgeAfter > 0:
		s.queue.ageAfter = cfg.AgeAfter
	case cfg.AgeAfter == 0:
		s.queue.ageAfter = 30 * time.Second
	}
	if cfg.QueueWaitTarget > 0 {
		s.limiter = newAIMD(cfg.QueueWaitTarget, cfg.MaxActive+cfg.QueueDepth)
	}
	if cfg.CheckpointEvery > 0 {
		sink := cfg.CheckpointSink
		if sink == nil {
			sink = checkpoint.NewMemSink()
		}
		s.ckStats = &experiments.CheckpointStats{}
		s.ckpt = &experiments.Checkpointing{Every: cfg.CheckpointEvery, Sink: sink, Stats: s.ckStats}
	}
	s.runCell = s.execCell
	for range cfg.MaxActive {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				j, wait, ok := s.queue.pop()
				if !ok {
					return
				}
				s.noteQueueWait(j.Tenant, wait)
				s.runJob(j)
			}
		}()
	}
	if cfg.Journal != nil {
		s.recoverJournal()
	}
	return s
}

// noteQueueWait records one measured queue wait — globally and
// against the popped job's tenant — and feeds the AIMD control loop
// and the exponentially-weighted recent-wait average that /v1/stats
// exports for the cluster coordinator's steal decisions.
func (s *Service) noteQueueWait(tenantName string, wait time.Duration) {
	s.mu.Lock()
	s.queueWaitSeconds += wait.Seconds()
	s.queueWaitPops++
	const alpha = 0.3 // recent pops dominate, but one outlier cannot
	s.queueWaitEWMA = alpha*wait.Seconds() + (1-alpha)*s.queueWaitEWMA
	ts := s.tstatsLocked(normTenant(tenantName))
	ts.queueWaitSeconds += wait.Seconds()
	ts.queueWaitPops++
	s.mu.Unlock()
	if s.limiter != nil {
		s.limiter.observe(wait)
	}
}

// recoverJournal replays the journal after a restart: jobs the previous
// process accepted but never finished are re-enqueued under their
// original IDs (their cells are deterministic, and usually one disk
// read away), or — when re-admission is impossible — registered as
// failed with an explicit cause, so no accepted job ever silently
// vanishes. Terminal records are left on disk untouched.
func (s *Service) recoverJournal() {
	recs, err := s.cfg.Journal.Load()
	if err != nil {
		return
	}
	for _, rec := range recs {
		if n := idNum(rec.ID); n > s.seq {
			s.seq = n
		}
	}
	for _, rec := range recs {
		if rec.Terminal() {
			continue
		}
		cause := ""
		for i, sp := range rec.Specs {
			if err := sp.Validate(s.cfg.ArtifactDir != ""); err != nil {
				cause = fmt.Sprintf("not recovered after restart: cell %d: %v", i, err)
				break
			}
		}
		if len(rec.Specs) == 0 {
			cause = "not recovered after restart: empty record"
		}
		if cause == "" && !rec.Deadline.IsZero() && !rec.Deadline.After(time.Now()) {
			cause = "deadline expired before the job could be recovered"
		}
		j := newJob(rec.ID, rec.Specs)
		j.Priority = rec.Priority
		j.Deadline = rec.Deadline
		j.Tenant = normTenant(rec.Tenant)
		enqueued := false
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if rec.IdemKey != "" {
			s.idem[rec.IdemKey] = j.ID
		}
		if cause == "" {
			if s.queue.push(j) {
				enqueued = true
				s.jobsRecovered++
				s.tenantCells[j.Tenant] += len(j.Specs)
				j.charged = true
			} else {
				cause = "not recovered after restart: queue full"
			}
		}
		if !enqueued {
			s.jobsAbandoned++
		}
		s.mu.Unlock()
		if !enqueued {
			j.failPendingCells(cause)
			s.finish(j, JobFailed, cause)
		}
	}
}

// SubmitOptions carries the optional admission parameters of a batch.
type SubmitOptions struct {
	// IdemKey deduplicates retried submissions onto the live job.
	IdemKey string
	// Priority orders the queue (higher first, default 0) and lets the
	// job preempt running lower-priority checkpointable work.
	Priority int
	// Deadline, when nonzero, bounds the job (see Job.Deadline).
	Deadline time.Time
	// Tenant is the identity to account the job to; empty means the
	// default tenant. Must satisfy tenant.ValidName when set.
	Tenant string
}

// Submit validates and enqueues a batch. It never blocks: a full queue
// returns ErrQueueFull immediately (the HTTP layer translates that into
// 429 + Retry-After so clients can apply backpressure).
func (s *Service) Submit(specs []CellSpec) (*Job, error) {
	return s.SubmitWith(specs, SubmitOptions{})
}

// SubmitIdem is Submit with an optional idempotency key (the HTTP layer
// passes the Idempotency-Key header; smtctl derives it from the request
// content). While a job submitted under the same key is still live, a
// duplicate submission returns that job instead of enqueuing a second
// copy — so a client retrying a submit whose response it never saw
// cannot duplicate work. Once the matching job is terminal, the key is
// fair game again (a deliberate resubmission is then served from the
// result caches anyway).
func (s *Service) SubmitIdem(specs []CellSpec, idemKey string) (*Job, error) {
	return s.SubmitWith(specs, SubmitOptions{IdemKey: idemKey})
}

// SubmitWith is the full admission path: validation, overload control
// (deadline already expired, AIMD limit, queue capacity), idempotency,
// journaling, priority enqueue and — when the new job outranks running
// work while every worker is busy — preemption of the lowest-priority
// running checkpointable job.
func (s *Service) SubmitWith(specs []CellSpec, opts SubmitOptions) (*Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	for i, sp := range specs {
		if err := sp.Validate(s.cfg.ArtifactDir != ""); err != nil {
			return nil, fmt.Errorf("service: cell %d: %w", i, err)
		}
	}
	tn := normTenant(opts.Tenant)
	if !tenant.ValidName(tn) {
		return nil, fmt.Errorf("service: invalid tenant name %q", tn)
	}
	if err := faultinject.Hit(faultinject.PointQueueAdmit); err != nil {
		s.mu.Lock()
		s.rejectedFull++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%v)", ErrQueueFull, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejectedDraining++
		return nil, ErrDraining
	}
	if !opts.Deadline.IsZero() && !opts.Deadline.After(time.Now()) {
		s.shedDeadline++
		return nil, ErrDeadlineExpired
	}
	// Tenant quotas gate before the global AIMD limiter: a tenant over
	// its own allocation gets its quota-specific cause, and only load
	// that is within quota can trip the shared backstop.
	if err := s.admitTenantLocked(tn, len(specs)); err != nil {
		s.shedQuota++
		return nil, err
	}
	if s.limiter != nil && !s.limiter.admit(s.queue.len()+s.active) {
		return nil, ErrShedLoad
	}
	if opts.IdemKey != "" {
		if id, ok := s.idem[opts.IdemKey]; ok {
			if j := s.jobs[id]; j != nil {
				if state, _ := j.State(); state == JobQueued || state == JobRunning {
					s.idemHits++
					return j, nil
				}
			}
		}
	}
	s.seq++
	j := newJob(fmt.Sprintf("j%04d", s.seq), specs)
	j.Priority = opts.Priority
	j.Deadline = opts.Deadline
	j.Tenant = tn
	if jl := s.cfg.Journal; jl != nil {
		// Journal before enqueue: a job must be durable before anyone
		// is told it was accepted. The fsync happens under s.mu, which
		// serialises submissions — milliseconds, and correct.
		if err := jl.write(Record{ID: j.ID, IdemKey: opts.IdemKey, Specs: specs, Priority: opts.Priority, Deadline: opts.Deadline, Tenant: tn, State: JobQueued, Created: time.Now()}); err != nil {
			s.seq--
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	if !s.queue.push(j) {
		s.seq--
		s.rejectedFull++
		if jl := s.cfg.Journal; jl != nil {
			jl.remove(j.ID)
		}
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if opts.IdemKey != "" {
		s.idem[opts.IdemKey] = j.ID
	}
	s.tenantCells[tn] += len(specs)
	j.charged = true
	s.tstatsLocked(tn).jobsAdmitted++
	s.maybePreemptLocked(j)
	return j, nil
}

// maybePreemptLocked asks the lowest-priority running job to yield when
// the newly queued job outranks it and no worker is free. The victim
// checkpoints at its next pause point and re-queues — work is deferred,
// never lost. Preemption needs checkpointing: without pause points a
// stop request would change nothing. Caller holds s.mu.
func (s *Service) maybePreemptLocked(newJob *Job) {
	if s.ckpt == nil || s.active < s.cfg.MaxActive {
		return
	}
	var victim *Job
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil || j == newJob {
			continue
		}
		if state, _ := j.State(); state != JobRunning {
			continue
		}
		if j.Priority >= newJob.Priority {
			continue
		}
		if victim == nil || j.Priority < victim.Priority {
			victim = j
		}
	}
	if victim != nil {
		victim.requestStop(fmt.Sprintf("preempted by %s (priority %d > %d)", newJob.ID, newJob.Priority, victim.Priority))
	}
}

// QueueWaitEWMA is the recent queue wait in seconds (JobAPI).
func (s *Service) QueueWaitEWMA() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queueWaitEWMA
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel aborts a job: a queued job is marked cancelled before it ever
// starts (the worker skips it); a running job has its context cancelled,
// which stops feeding new cells through the runner's existing ctx path —
// cells already simulating complete, later ones report cancelled.
// Returns false for unknown IDs; cancelling a terminal job is a no-op.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	cancel := j.cancel
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		j.cancelPendingCells("cancelled before start")
		s.finish(j, JobCancelled, "cancelled before start")
		return true
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// runJob executes one job's cells over the runner pool, streaming
// per-cell completion events as they land. A job whose deadline has
// already passed fails with an explicit cause before simulating
// anything; a job asked to stop mid-run (preemption, drain) checkpoints
// its cells at their pause points and goes back to the queue.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return // cancelled while queued
	}
	j.mu.Unlock()
	if !j.Deadline.IsZero() && !j.Deadline.After(time.Now()) {
		msg := "deadline expired before the job started"
		j.failPendingCells(msg)
		s.mu.Lock()
		s.shedDeadline++
		s.mu.Unlock()
		s.finish(j, JobFailed, msg)
		return
	}
	j.clearStop()
	base := withTenantCtx(s.baseCtx, j.Tenant)
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Deadline.IsZero() {
		ctx, cancel = context.WithCancel(base)
	} else {
		ctx, cancel = context.WithDeadline(base, j.Deadline)
	}
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		cancel()
		return
	}
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}()

	j.setState(JobRunning, "")

	idxs := make([]int, len(j.Specs))
	for i := range idxs {
		idxs[i] = i
	}
	// The job context is handled inside the cell function (so cancelled
	// cells are recorded per cell instead of discarding the whole
	// batch); Map itself runs to completion over every index.
	results, err := runner.Map(context.Background(), s.cfg.Workers, idxs, func(_ context.Context, i int) (CellResult, error) {
		spec := j.Specs[i]
		// A requeued job re-runs only what the preemption interrupted:
		// cells that finished before it keep their results.
		if prev := j.cellSnapshot(i); prev.State == CellDone || prev.State == CellFailed {
			return prev, nil
		}
		if err := ctx.Err(); err != nil {
			res := CellResult{Label: spec.Label(), State: CellCancelled, Error: err.Error()}
			if errors.Is(err, context.DeadlineExceeded) {
				res.State = CellFailed
				res.Error = "deadline expired before cell started"
			}
			j.setCell(i, res)
			return res, nil
		}
		j.markCellRunning(i)
		res := s.runCell(ctx, spec, filepath.Join(s.cfg.ArtifactDir, j.ID, fmt.Sprintf("cell-%d", i)), s.cellControl(ctx, j, i))
		if res.State == CellPreempted {
			if _, stopped := j.stopRequested(); !stopped {
				// Not a preemption: the cell's stop predicate fired off the
				// job context (deadline or cancel). The checkpoint is parked
				// either way; the outcome must be terminal and explicit.
				switch {
				case errors.Is(ctx.Err(), context.DeadlineExceeded):
					res.State = CellFailed
					res.Error = "deadline exceeded: " + res.Error
				case errors.Is(ctx.Err(), context.Canceled):
					res.State = CellCancelled
				default:
					res.State = CellFailed
				}
			}
		}
		j.setCell(i, res)
		return res, nil
	})
	if err != nil {
		// Unreachable in practice (the cell fn never errors and execCell
		// recovers panics), but a runner failure must still terminate
		// the job.
		s.finish(j, JobFailed, err.Error())
		return
	}

	var preempted int
	for _, r := range results {
		if r.State == CellPreempted {
			preempted++
		}
	}
	if reason, stopped := j.stopRequested(); stopped && preempted > 0 {
		// Cooperative stop honoured: the interrupted cells are in the
		// checkpoint sink. Re-queue the job (jumping the capacity bound —
		// it was admitted once already); if the queue is closed (drain),
		// the job simply stays queued in the registry with its journal
		// record non-terminal, so a restart resumes it.
		j.prepareRequeue(reason)
		if s.queue.forcePush(j) {
			s.mu.Lock()
			s.preemptions++
			s.mu.Unlock()
		}
		return
	}

	state, msg := JobDone, ""
	var failed, cancelled int
	for _, r := range results {
		switch r.State {
		case CellFailed:
			failed++
			if msg == "" {
				msg = fmt.Sprintf("cell %d (%s): %s", r.Index, r.Label, r.Error)
			}
		case CellCancelled:
			cancelled++
		}
	}
	s.countCells(j, results)
	switch {
	case failed > 0:
		state = JobFailed
	case cancelled > 0:
		state, msg = JobCancelled, fmt.Sprintf("%d of %d cells cancelled", cancelled, len(results))
	}
	s.finish(j, state, msg)
}

// cellControl builds one cell's preemption wiring: a stop predicate
// combining the watchdog's per-cell request, the job context (deadline,
// cancel) and the job-level stop, and the resume notification that
// surfaces as a "resumed" cell event. Nil when checkpointing is
// disabled.
func (s *Service) cellControl(ctx context.Context, j *Job, i int) *cellCtl {
	if s.ckpt == nil {
		return nil
	}
	var cellStop atomic.Pointer[string]
	shouldStop := func() (string, bool) {
		if r := cellStop.Load(); r != nil {
			return *r, true
		}
		if err := ctx.Err(); err != nil {
			return err.Error(), true
		}
		return j.stopRequested()
	}
	onRestore := func(saved uint64) {
		j.noteCellEvent(i, CellResumed, fmt.Sprintf("resumed from checkpoint, %d cycles saved", saved))
	}
	return &cellCtl{
		ck:   s.ckpt.ForCell(shouldStop, onRestore),
		stop: func(reason string) { r := reason; cellStop.Store(&r) },
	}
}

// finish drives j to a terminal state exactly once: journals the outcome
// so a restart will not re-run finished work, then counts it. The record
// is written before Done closes and the end event goes out, so nobody
// who saw the job end can find it still live in the journal. A no-op if
// the job is already terminal.
func (s *Service) finish(j *Job, state, msg string) {
	var journal func()
	if jl := s.cfg.Journal; jl != nil {
		// Best-effort: a failed terminal write means the next restart
		// re-runs a finished (deterministic, cached) job — wasteful but
		// correct. The journal's error counter records it.
		journal = func() {
			jl.write(Record{ID: j.ID, Specs: j.Specs, State: state, Error: msg, Created: time.Now()})
		}
	}
	if j.transition(state, msg, journal) {
		s.count(j, state)
	}
}

func (s *Service) count(j *Job, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch state {
	case JobDone:
		s.jobsDone++
	case JobFailed:
		s.jobsFailed++
	case JobCancelled:
		s.jobsCancelled++
	}
	// The job left the live set: release its cells from the tenant's
	// MaxActiveCells allocation (once, and only if it was charged —
	// recovered-but-abandoned jobs never were).
	if j.charged {
		j.charged = false
		tn := normTenant(j.Tenant)
		if n := s.tenantCells[tn] - len(j.Specs); n > 0 {
			s.tenantCells[tn] = n
		} else {
			delete(s.tenantCells, tn)
		}
	}
}

func (s *Service) countCells(j *Job, results []CellResult) {
	var cycles uint64
	s.mu.Lock()
	ts := s.tstatsLocked(normTenant(j.Tenant))
	for _, r := range results {
		switch r.State {
		case CellDone:
			s.cellsDone++
			ts.cellsDone++
			cycles += cellCycles(j.Specs[r.Index], r)
		case CellFailed:
			s.cellsFailed++
			ts.cellsFailed++
		case CellCancelled:
			s.cellsCancelled++
		}
	}
	ts.cyclesCharged += cycles
	s.mu.Unlock()
	s.cfg.Tenants.ChargeCycles(normTenant(j.Tenant), cycles, time.Now())
}

// stopIntake flips the service into draining mode and closes the queue
// exactly once, so workers exit after finishing what was accepted.
func (s *Service) stopIntake() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		s.queue.close()
	}
}

// requestStopAll asks every running job to yield at its next checkpoint
// (drain): interrupted cells park their state in the sink, the jobs
// stay non-terminal in the journal, and the next process resumes them.
func (s *Service) requestStopAll(reason string) {
	for _, j := range s.Jobs() {
		if state, _ := j.State(); state == JobRunning {
			j.requestStop(reason)
		}
	}
}

// Draining reports whether intake has stopped.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops intake and waits for every accepted job to finish. With
// checkpointing enabled, running jobs are asked to stop at their next
// pause point: their cells checkpoint, the jobs stay queued/non-terminal
// in the journal, and the next daemon process resumes them — graceful
// shutdown defers work instead of blocking on it. If ctx expires first,
// outstanding job contexts are cancelled (running cells complete,
// pending ones are skipped as cancelled) and Drain keeps waiting for
// the workers to wind down before returning ctx's error.
func (s *Service) Drain(ctx context.Context) error {
	s.stopIntake()
	if s.ckpt != nil {
		s.requestStopAll("daemon draining")
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort()
		<-done
		return ctx.Err()
	}
}

// Close aborts everything immediately: intake stops, job contexts are
// cancelled, and workers are waited out (cells already inside the
// simulator finish — it has no preemption points).
func (s *Service) Close() {
	s.stopIntake()
	s.abort()
	s.workers.Wait()
}
