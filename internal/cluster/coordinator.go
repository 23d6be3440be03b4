package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
	"smtexplore/internal/tenant"
)

// ErrNoWorkers reports a submission that cannot be placed because the
// ring has no live members (HTTP 503: retrying is reasonable — a worker
// may join or recover). It matches service.ErrUnavailable.
var ErrNoWorkers = service.Unavailable("cluster: no live workers")

// Config tunes the coordinator. The zero value is production-sane.
type Config struct {
	// Vnodes is the per-worker virtual-node count (<= 0 → DefaultVnodes).
	Vnodes int
	// HealthInterval paces the health/telemetry loop (<= 0 → 500ms).
	HealthInterval time.Duration
	// HealthFailures is how many consecutive failed probes declare a
	// worker dead (<= 0 → 3). Death removes it from the ring and
	// migrates its in-flight groups.
	HealthFailures int
	// ProbeTimeout bounds one health/telemetry probe. It is decoupled
	// from HealthInterval on purpose: a worker that answers 200 slower
	// than the probe cadence is slow, not dead, and must not accumulate
	// strikes (<= 0 → max(2s, 2×HealthInterval)).
	ProbeTimeout time.Duration
	// StealMargin is the outstanding-jobs (queued+active) divergence
	// between a cell's ring owner and the least-loaded worker beyond
	// which the group is routed to the latter (<= 0 → 2).
	StealMargin int
	// StealWaitFactor steals on queue-wait telemetry: an owner whose
	// recent queue-wait EWMA exceeds the least-loaded worker's by this
	// factor (and is above StealMinWait in absolute terms) is considered
	// overloaded (<= 0 → 4).
	StealWaitFactor float64
	// StealMinWait is the absolute queue-wait floor below which EWMA
	// divergence is noise, not overload (<= 0 → 200ms).
	StealMinWait time.Duration
	// Tenants, when set, makes the coordinator enforce per-tenant
	// job/cell quotas against cluster-wide in-flight totals (typically
	// loaded from the same -tenants file the workers use). Nil admits
	// everything; workers still enforce their own local quotas and
	// cycle budgets on forwarded work.
	Tenants *tenant.Registry

	// Journal, when set, replicates routing deltas (membership, job
	// admissions, group assignments, conclusions) for a standby to tail.
	// Every append is lease-fenced; a fenced-off append refuses the
	// triggering submission rather than accepting unreplicated work. Nil
	// runs the coordinator unreplicated (single-coordinator mode).
	Journal *RJournal
	// OnForward, when set, is called exactly once: on this coordinator's
	// first successful interaction with a worker on behalf of a job
	// (submit accepted, or the first event of an adopted group's stream).
	// The HA layer uses it to timestamp the end of a failover window.
	OnForward func()
	// Dial constructs the Worker handle for a discovered name/addr pair
	// (register endpoint, journal adoption). Nil → NewRemote; tests
	// inject fakes.
	Dial func(name, addr string) Worker
}

func (c *Config) fill() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = max(2*time.Second, 2*c.HealthInterval)
	}
	if c.StealMargin <= 0 {
		c.StealMargin = 2
	}
	if c.StealWaitFactor <= 0 {
		c.StealWaitFactor = 4
	}
	if c.StealMinWait <= 0 {
		c.StealMinWait = 200 * time.Millisecond
	}
}

// retryWait paces the in-place submit retries (a worker's Retry-After
// may stretch it, bounded) and the re-dials of a broken progress stream.
const retryWait = 75 * time.Millisecond

// member is one registered worker plus the coordinator's view of it:
// liveness from the health loop and the last telemetry snapshot the
// steal heuristic and metric aggregates read.
type member struct {
	w     Worker
	alive bool
	// live is cancelled when the worker is declared dead, closing every
	// progress stream to it: a hung connection cannot outlive an eviction.
	live    context.Context
	kill    context.CancelFunc
	fails   int
	stats   service.Metrics
	statsOK bool
	// lastStats is when stats was refreshed (steals want fresh numbers).
	lastStats time.Time
	// lastSeen is the last registration heartbeat or successful probe —
	// what `smtctl cluster` reports as heartbeat age.
	lastSeen time.Time
}

// group is one coordinator job's sub-batch on one worker. idxs are the
// coordinator-job cell indices, in the order they were forwarded.
type group struct {
	gi       int // index within the cjob, stable across migrations (journal key)
	idxs     []int
	worker   string // current assignee (may change across migrations)
	remoteID string // current remote job ID ("" until submitted)
	adopted  bool   // placement journaled by a previous leader: resubscribe, don't re-submit
}

// cjob is a coordinator job: the client-visible tracker plus the fan-out
// bookkeeping.
type cjob struct {
	tracker *service.Job
	mu      sync.Mutex
	groups  []*group
	pending int
	// cancelled is done once the client cancels; each group forwards it
	// to its worker at once.
	cancelled context.Context
	cancel    context.CancelFunc
}

func newCJob(tracker *service.Job) *cjob {
	cj := &cjob{tracker: tracker}
	cj.cancelled, cj.cancel = context.WithCancel(context.Background())
	return cj
}

// Coordinator fronts a fleet of worker smtds behind the single-daemon
// API. Create with New, register workers (statically or via the
// /v1/cluster/register endpoint), serve Handler, Close when done.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	baseCtx context.Context
	abort   context.CancelFunc
	wg      sync.WaitGroup
	started time.Time

	mu      sync.Mutex
	members map[string]*member
	jobs    map[string]*cjob
	order   []string
	idem    map[string]string
	seq     int

	// Per-tenant in-flight accounting behind admitTenantLocked.
	tenantJobs  map[string]int
	tenantCells map[string]int
	tenantSheds map[string]uint64

	// forwardOnce gates cfg.OnForward (first successful worker
	// interaction on behalf of a job).
	forwardOnce sync.Once

	// Counters for /metrics.
	jobsDone, jobsFailed, jobsCancelled uint64
	cellsForwarded                      uint64
	steals                              uint64
	jobsRecovered                       uint64
	migratedCells                       uint64
	jobsAdopted                         uint64
	registrations, workersLost          uint64
}

// New starts a coordinator (and its health loop). The caller owns the
// lifecycle: Close when done.
func New(cfg Config) *Coordinator {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(cfg.Vnodes),
		baseCtx: ctx,
		abort:   cancel,
		started: time.Now(),
		members: make(map[string]*member),
		jobs:    make(map[string]*cjob),
		idem:    make(map[string]string),

		tenantJobs:  make(map[string]int),
		tenantCells: make(map[string]int),
		tenantSheds: make(map[string]uint64),
	}
	c.wg.Add(1)
	go c.healthLoop()
	return c
}

// Close stops the health loop and every group goroutine (their remote
// jobs keep running on the workers; the coordinator just stops
// watching).
func (c *Coordinator) Close() {
	c.abort()
	c.wg.Wait()
}

// AddWorker registers (or revives, or re-addresses) a worker and puts
// it on the ring. Safe to call repeatedly — the join heartbeat does.
func (c *Coordinator) AddWorker(w Worker) {
	c.mu.Lock()
	m, ok := c.members[w.Name()]
	if !ok {
		m = &member{}
		c.members[w.Name()] = m
	}
	// A re-registration is a live worker announcing itself: reset the
	// failure count and adopt the (possibly new) address.
	m.w = w
	m.fails = 0
	m.lastSeen = time.Now()
	if !m.alive {
		m.alive = true
		m.live, m.kill = context.WithCancel(c.baseCtx)
		c.registrations++
	}
	c.ring.Add(w.Name())
	c.mu.Unlock()
	if c.cfg.Journal != nil {
		// Deduplicated inside the journal, so the 300ms heartbeat cadence
		// costs one record per membership change, not one per beat.
		c.cfg.Journal.Worker(w.Name(), w.Addr())
	}
}

// RemoveWorker drains a worker out of the ring deliberately (operator
// action); in-flight groups on it migrate exactly as if it had died.
func (c *Coordinator) RemoveWorker(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markDeadLocked(name)
}

func (c *Coordinator) markDeadLocked(name string) {
	if m, ok := c.members[name]; ok && m.alive {
		m.alive = false
		m.kill()
		c.workersLost++
	}
	c.ring.Remove(name)
	if c.cfg.Journal != nil {
		// A dead worker is a rare event; the fsync under c.mu is cheaper
		// than racing a standby that still routes to the corpse.
		c.cfg.Journal.WorkerDead(name)
	}
}

// healthLoop probes every member each interval: liveness via /healthz,
// telemetry via /v1/stats. HealthFailures consecutive failures remove
// the worker from the ring and close its progress streams — the group
// goroutines following them migrate the in-flight work.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-tick.C:
		}
		c.probeAll()
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	names := make([]string, 0, len(c.members))
	for n, m := range c.members {
		if m.alive {
			names = append(names, n)
		}
	}
	c.mu.Unlock()
	// Parallel probes: one slow worker must not delay (or skip) the
	// others' liveness checks for the whole tick.
	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.probe(n)
		}()
	}
	wg.Wait()
}

func (c *Coordinator) probe(name string) {
	c.mu.Lock()
	m, ok := c.members[name]
	if !ok || !m.alive {
		c.mu.Unlock()
		return
	}
	w := m.w
	c.mu.Unlock()

	// The probe deadline is ProbeTimeout, NOT HealthInterval: a worker
	// that answers 200 in longer than the probe cadence is slow, not
	// dead. Only transport errors and non-2xx responses are strikes.
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.ProbeTimeout)
	err := w.Health(ctx)
	var stats service.Metrics
	var statsErr error
	if err == nil {
		stats, statsErr = w.Stats(ctx)
	}
	cancel()

	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok = c.members[name]
	if !ok || !m.alive || m.w != w {
		return // re-registered or removed while we probed
	}
	if err != nil {
		m.fails++
		if m.fails >= c.cfg.HealthFailures {
			c.markDeadLocked(name)
		}
		return
	}
	m.fails = 0
	m.lastSeen = time.Now()
	if statsErr == nil {
		m.stats = stats
		m.statsOK = true
		m.lastStats = time.Now()
	}
}

// refreshStats synchronously updates telemetry older than maxAge for
// every live member, so routing decisions see the current queue state
// rather than the last health tick's. Best-effort: a worker that fails
// the refresh keeps its stale snapshot (and the health loop will deal
// with it).
func (c *Coordinator) refreshStats(maxAge time.Duration) {
	c.mu.Lock()
	type target struct {
		name string
		w    Worker
	}
	var stale []target
	for n, m := range c.members {
		if m.alive && time.Since(m.lastStats) > maxAge {
			stale = append(stale, target{n, m.w})
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, t := range stale {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(c.baseCtx, 500*time.Millisecond)
			defer cancel()
			stats, err := t.w.Stats(ctx)
			if err != nil {
				return
			}
			c.mu.Lock()
			if m, ok := c.members[t.name]; ok && m.w == t.w {
				m.stats = stats
				m.statsOK = true
				m.lastStats = time.Now()
			}
			c.mu.Unlock()
		}()
	}
	wg.Wait()
}

// outstanding is the load proxy behind stealing: jobs a new submission
// would queue behind.
func outstanding(m *member) int {
	return m.stats.JobsActive + m.stats.QueueDepth
}

// leastLoadedLocked picks the live member with the fewest outstanding
// jobs (ties break on name for determinism), skipping names in avoid.
func (c *Coordinator) leastLoadedLocked(avoid map[string]bool) string {
	best := ""
	bestLoad := 0
	for _, n := range sortedNamesLocked(c.members) {
		m := c.members[n]
		if !m.alive || avoid[n] {
			continue
		}
		load := outstanding(m)
		if best == "" || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

func sortedNamesLocked(members map[string]*member) []string {
	names := make([]string, 0, len(members))
	for n := range members {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// chooseWorker routes one group: the ring owner unless it is gone
// (fallback to the least-loaded live worker) or overloaded relative to
// the least-loaded worker — outstanding jobs diverging by StealMargin,
// or recent queue-wait EWMA diverging by StealWaitFactor above the
// StealMinWait floor — in which case the group is stolen by the idle
// worker.
func (c *Coordinator) chooseWorker(owner string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	om, ok := c.members[owner]
	if !ok || !om.alive {
		// Dead owner: not a steal, just routing around a hole in the ring
		// the health loop has not (or has) already closed.
		return c.leastLoadedLocked(nil)
	}
	idle := c.leastLoadedLocked(nil)
	if idle == "" || idle == owner {
		return owner
	}
	im := c.members[idle]
	switch {
	case outstanding(om)-outstanding(im) >= c.cfg.StealMargin:
	case om.stats.QueueWaitEWMASeconds > c.cfg.StealWaitFactor*im.stats.QueueWaitEWMASeconds &&
		om.stats.QueueWaitEWMASeconds > c.cfg.StealMinWait.Seconds():
	default:
		return owner
	}
	c.steals++
	return idle
}

// SubmitWith validates a batch, splits it by ring owner (with
// stealing), forwards the groups to workers, and returns the mirrored
// job. The same admission shapes as the single daemon: empty batches,
// bad cells and bad tenant names are rejected; no live workers maps to
// 503.
func (c *Coordinator) SubmitWith(specs []service.CellSpec, opts service.SubmitOptions) (*service.Job, error) {
	// The coordinator serves no artifacts, so observe cells are rejected
	// at this edge exactly as on an artifact-less daemon.
	tn, err := service.ValidateSubmit(specs, opts.Tenant, false)
	if err != nil {
		return nil, err
	}
	if c.ring.Len() == 0 {
		return nil, ErrNoWorkers
	}
	// Fresh telemetry before routing: a steal decision made on a stale
	// queue snapshot is just load imbalance with extra steps.
	c.refreshStats(c.cfg.HealthInterval / 2)

	c.mu.Lock()
	if opts.IdemKey != "" {
		if id, ok := c.idem[opts.IdemKey]; ok {
			if cj := c.jobs[id]; cj != nil {
				if state, _ := cj.tracker.State(); state == service.JobQueued || state == service.JobRunning {
					c.mu.Unlock()
					return cj.tracker, nil
				}
			}
		}
	}
	// Quota-gate after the idempotency short-circuit (a replayed submit
	// is the same admitted job, not new demand) and before the job ID is
	// minted, so refused submissions leave no trace.
	if err := c.admitTenantLocked(tn, len(specs)); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	id := fmt.Sprintf("c%04d", c.seq)
	if opts.IdemKey != "" {
		c.idem[opts.IdemKey] = id
	}
	c.chargeTenantLocked(tn, len(specs))
	c.mu.Unlock()

	if c.cfg.Journal != nil {
		// The admission is durable before the client sees a job ID; a
		// fenced-off append (lease stolen mid-submit) refuses the job —
		// accepting work the standby cannot adopt would silently lose it.
		rec := JobRec{ID: id, Specs: specs, Tenant: tn, Priority: opts.Priority,
			Deadline: opts.Deadline, IdemKey: opts.IdemKey}
		if err := c.cfg.Journal.JobStart(rec); err != nil {
			c.mu.Lock()
			c.releaseTenantLocked(tn, len(specs))
			if opts.IdemKey != "" {
				delete(c.idem, opts.IdemKey)
			}
			c.mu.Unlock()
			return nil, err
		}
	}

	j := service.NewRemoteJob(id, specs)
	j.Priority = opts.Priority
	j.Deadline = opts.Deadline
	j.Tenant = tn
	cj := newCJob(j)

	// Group cells by ring owner of their content label, then let the
	// steal heuristic reroute whole groups.
	byOwner := make(map[string][]int)
	var owners []string
	for i, sp := range specs {
		o := c.ring.Owner(sp.Label())
		if _, ok := byOwner[o]; !ok {
			owners = append(owners, o)
		}
		byOwner[o] = append(byOwner[o], i)
	}
	sort.Strings(owners)
	for gi, o := range owners {
		cj.groups = append(cj.groups, &group{gi: gi, idxs: byOwner[o], worker: c.chooseWorker(o)})
	}
	cj.pending = len(cj.groups)

	c.mu.Lock()
	c.jobs[id] = cj
	c.order = append(c.order, id)
	c.cellsForwarded += uint64(len(specs))
	c.mu.Unlock()

	j.Conclude(service.JobRunning, "")
	for _, g := range cj.groups {
		c.wg.Add(1)
		go func(g *group) {
			defer c.wg.Done()
			c.runGroup(cj, g)
			c.groupDone(cj)
		}(g)
	}
	return j, nil
}

// groupDone finalizes the job once its last group lands, folding cell
// outcomes into the job state exactly like the single daemon does.
func (c *Coordinator) groupDone(cj *cjob) {
	cj.mu.Lock()
	cj.pending--
	last := cj.pending == 0
	cj.mu.Unlock()
	if !last {
		return
	}
	state, msg := service.JobDone, ""
	var failed, cancelled int
	results := cj.tracker.Results()
	for _, r := range results {
		switch r.State {
		case service.CellFailed:
			failed++
			if msg == "" {
				msg = fmt.Sprintf("cell %d (%s): %s", r.Index, r.Label, r.Error)
			}
		case service.CellCancelled:
			cancelled++
		}
	}
	switch {
	case failed > 0:
		state = service.JobFailed
	case cancelled > 0:
		state, msg = service.JobCancelled, fmt.Sprintf("%d of %d cells cancelled", cancelled, len(results))
	}
	if cj.tracker.Conclude(state, msg) {
		c.mu.Lock()
		switch state {
		case service.JobDone:
			c.jobsDone++
		case service.JobFailed:
			c.jobsFailed++
		case service.JobCancelled:
			c.jobsCancelled++
		}
		// Conclude returns true exactly once, so the quota release is
		// exactly-once too.
		c.releaseTenantLocked(service.NormTenant(cj.tracker.Tenant), len(cj.tracker.Specs))
		c.mu.Unlock()
		if c.cfg.Journal != nil {
			// Best-effort: a fenced-off conclude means we just got demoted —
			// the new leader re-adopts the job and concludes it itself.
			c.cfg.Journal.Conclude(cj.tracker.ID, string(state), msg)
		}
	}
}

// groupReq builds the forwarded submission for a group: the subset of
// cells, the job's priority, and whatever remains of its deadline.
func (cj *cjob) groupReq(g *group) service.SubmitRequest {
	// The tenant rides in the request body (not a header) so migrations
	// and retries re-derive it from the tracker for free.
	req := service.SubmitRequest{Priority: cj.tracker.Priority, Tenant: cj.tracker.Tenant}
	for _, i := range g.idxs {
		req.Cells = append(req.Cells, cj.tracker.Specs[i])
	}
	if !cj.tracker.Deadline.IsZero() {
		// Forward the remaining budget; a migration re-derives it, so the
		// deadline holds across worker deaths too.
		d := time.Until(cj.tracker.Deadline)
		if d < time.Millisecond {
			d = time.Millisecond // let the worker shed it explicitly
		}
		req.Deadline = d.String()
	}
	return req
}

// groupIdemKey makes a forwarded submit safe to repeat against the same
// worker without double-enqueueing. Keying on the coordinator job ID
// (not just cell content) keeps two coordinator jobs with identical
// cells from aliasing one remote job — cancelling one must not cancel
// the other.
func groupIdemKey(jobID string, g *group, req service.SubmitRequest) string {
	b, _ := json.Marshal(req)
	sum := sha256.Sum256(fmt.Appendf(b, "|%s|%d", jobID, g.idxs[0]))
	return fmt.Sprintf("%x", sum)
}

// failGroup records a terminal failure for every unfinished cell of g.
func (cj *cjob) failGroup(g *group, msg string) {
	for _, i := range g.idxs {
		cj.tracker.RecordCell(i, service.CellResult{State: service.CellFailed, Error: msg})
	}
}

// runGroup drives one group to completion: submit to its worker, follow
// its progress stream, fetch results when it ends — and, when the
// worker dies mid-flight, migrate the
// group to a survivor, which resumes checkpointed cells from the shared
// store instead of cycle zero.
func (c *Coordinator) runGroup(cj *cjob, g *group) {
	const maxAttempts = 8 // death-and-migration cycles before giving up
	backpressured := false
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			// A previous worker died (or shed backpressure): re-place the
			// group on another member, preferring the ring's new owner view.
			if cj.cancelled.Err() != nil {
				cj.failGroup(g, "worker lost after cancellation")
				return
			}
			c.mu.Lock()
			next := c.leastLoadedLocked(map[string]bool{g.worker: true})
			if next == "" {
				next = c.leastLoadedLocked(nil) // sole survivor: retry it
			}
			c.mu.Unlock()
			if next == "" {
				cj.failGroup(g, ErrNoWorkers.Error()+" (worker died mid-job, none left to migrate to)")
				return
			}
			if !backpressured {
				// Only a dead worker counts as a recovery; a busy one that
				// shed the group is routing, not failure handling.
				c.mu.Lock()
				c.jobsRecovered++
				c.migratedCells += uint64(len(g.idxs))
				c.mu.Unlock()
			}
			g.worker = next
			g.remoteID = ""
			g.adopted = false // a migrated group re-submits (idempotently)
		}
		var done bool
		done, backpressured = c.runGroupOn(cj, g)
		if done {
			return
		}
	}
	cj.failGroup(g, "cluster: group migration budget exhausted")
}

// worker returns the current handle of a live member and the context
// its eviction cancels; nil if the member is unknown or dead.
func (c *Coordinator) worker(name string) (Worker, context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[name]; ok && m.alive {
		return m.w, m.live
	}
	return nil, nil
}

// runGroupOn runs the group on its currently-assigned worker. done is
// true when the group is finished (results recorded or failed
// terminally); otherwise the worker must be replaced, and backpressured
// distinguishes a busy worker shedding load (leave it on the ring, just
// route around it) from a dead one (mark it lost and migrate).
func (c *Coordinator) runGroupOn(cj *cjob, g *group) (done, backpressured bool) {
	w, live := c.worker(g.worker)
	if w == nil {
		return false, false
	}
	// A journal-adopted placement from the previous leader is already
	// running on the worker: resubscribe to it instead of re-forwarding.
	if !g.adopted || g.remoteID == "" {
		req := cj.groupReq(g)
		attemptKey := groupIdemKey(cj.tracker.ID, g, req)
		// Submit with a couple of in-place retries (the idempotency key
		// makes a lost 202 harmless), then declare the worker suspect.
		var remoteID string
		var err error
		for try := 0; try < 3; try++ {
			sctx, cancel := context.WithTimeout(c.baseCtx, 10*time.Second)
			remoteID, err = w.Submit(sctx, req, attemptKey)
			cancel()
			if err == nil {
				break
			}
			wait := retryWait
			// A well-formed 4xx refusal comes from a healthy worker; never
			// mark it dead — the migration loop replaying the same refusal
			// across the fleet would otherwise kill every live worker in
			// turn. Policy refusals (tenant quota, validation) are terminal:
			// retrying would replay the refused demand and evade enforcement.
			// Bare-429 backpressure is transient — the coordinator already
			// told the client 202, so a full queue must cost latency, not
			// the job: honour the worker's Retry-After (bounded so a
			// congestion-inflated hint cannot stall the group), retry, and
			// after the in-place tries route around the busy worker.
			var refused *api.RefusedError
			if errors.As(err, &refused) {
				if !refused.Backpressure() {
					cj.failGroup(g, fmt.Sprintf("worker %s refused batch: %s", g.worker, refused.Error()))
					return true, false
				}
				if refused.RetryAfter > wait {
					wait = min(refused.RetryAfter, 2*time.Second)
				}
			}
			select {
			case <-c.baseCtx.Done():
				cj.failGroup(g, "coordinator shut down")
				return true, false
			case <-time.After(wait):
			}
		}
		if err != nil {
			var refused *api.RefusedError
			if errors.As(err, &refused) && refused.Backpressure() {
				return false, true
			}
			c.mu.Lock()
			c.markDeadLocked(g.worker)
			c.mu.Unlock()
			return false, false
		}
		g.remoteID = remoteID
		c.noteForward()
		if c.cfg.Journal != nil {
			c.cfg.Journal.Assign(AssignRec{Job: cj.tracker.ID, Group: g.gi,
				Worker: g.worker, RemoteID: remoteID, Idxs: g.idxs})
		}
	}
	for _, i := range g.idxs {
		cj.tracker.MarkCellRunning(i)
	}
	return c.follow(cj, g, w, live), false
}

// follow streams the group's remote job until it ends, then mirrors its
// results. A client cancel is forwarded the moment it happens. A broken
// stream re-dials from the last event seen while the health loop still
// lists the worker alive; otherwise, or when the worker no longer knows
// the job, follow reports false and the group goes back for re-placement.
func (c *Coordinator) follow(cj *cjob, g *group, w Worker, live context.Context) bool {
	name, id := g.worker, g.remoteID
	defer context.AfterFunc(cj.cancelled, func() {
		if w, _ := c.worker(name); w != nil {
			cctx, cancel := context.WithTimeout(c.baseCtx, 5*time.Second)
			defer cancel()
			w.Cancel(cctx, id) // idempotent server-side
		}
	})()
	last := -1
	for {
		_, err := w.Follow(live, id, last, func(ev service.Event) {
			last = ev.Seq
			c.noteForward() // adopted groups: the replayed history ends the failover window
		})
		if err == nil {
			break
		}
		if c.baseCtx.Err() != nil {
			cj.failGroup(g, "coordinator shut down")
			return true
		}
		if errors.Is(err, api.ErrJobNotFound) {
			return false
		}
		select {
		case <-live.Done():
		case <-time.After(retryWait):
		}
		// Re-dial while the health loop lists the worker alive, through its
		// current handle: a re-registration may have moved its address.
		if w, live = c.worker(name); w == nil {
			return false
		}
	}

	rctx, cancel := context.WithTimeout(c.baseCtx, 10*time.Second)
	res, err := w.Result(rctx, id)
	cancel()
	if err != nil {
		// Ended but unfetchable: treat like a death — the worker may have
		// crashed between the end event and the result.
		c.mu.Lock()
		c.markDeadLocked(name)
		c.mu.Unlock()
		return false
	}
	for k, cell := range res.Cells {
		if k < len(g.idxs) {
			cj.tracker.RecordCell(g.idxs[k], cell)
		}
	}
	return true
}

// Job looks up a coordinator job's tracker.
func (c *Coordinator) Job(id string) (*service.Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cj, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return cj.tracker, true
}

// Jobs lists trackers in submission order.
func (c *Coordinator) Jobs() []*service.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*service.Job, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.jobs[id].tracker)
	}
	return out
}

// Cancel aborts a coordinator job: the cancellation fans out to every
// group's remote job; the mirrored outcomes conclude the tracker.
func (c *Coordinator) Cancel(id string) bool {
	c.mu.Lock()
	cj, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return false
	}
	cj.cancel()
	return true
}

// dial resolves a discovered worker address to a Worker handle.
func (c *Coordinator) dial(name, addr string) Worker {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(name, addr)
	}
	return NewRemote(name, addr)
}

// noteForward fires cfg.OnForward exactly once: the HA layer's "the new
// leader is actually moving work" signal.
func (c *Coordinator) noteForward() {
	if c.cfg.OnForward == nil {
		return
	}
	c.forwardOnce.Do(c.cfg.OnForward)
}

// Adopt rebuilds the coordinator's world from replicated routing state —
// the promoted standby's first act. Journaled workers go straight onto
// the ring (heartbeats will confirm them); live jobs get trackers,
// restored tenant charges and idempotency keys, and group runners that
// resubscribe to the journaled remote IDs' progress streams instead of
// re-forwarding the cells; jobs that concluded before the failover stay
// resolvable (state only) for clients polling across the switch.
func (c *Coordinator) Adopt(st *RoutingState) {
	if st == nil {
		return
	}
	for _, name := range slices.Sorted(maps.Keys(st.Workers)) {
		if w, _ := c.worker(name); w == nil {
			c.AddWorker(c.dial(name, st.Workers[name]))
		}
	}
	for _, id := range st.Order {
		if js := st.Jobs[id]; js != nil {
			c.adoptJob(id, js)
		}
	}
}

func (c *Coordinator) adoptJob(id string, js *JobSnap) {
	c.mu.Lock()
	if _, dup := c.jobs[id]; dup {
		c.mu.Unlock()
		return
	}
	// Keep the ID sequence above every adopted ID so freshly-minted IDs
	// never collide with the previous leader's.
	var n int
	if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n > c.seq {
		c.seq = n
	}
	c.mu.Unlock()

	j := service.NewRemoteJob(id, js.Rec.Specs)
	j.Priority = js.Rec.Priority
	j.Deadline = js.Rec.Deadline
	j.Tenant = js.Rec.Tenant
	cj := newCJob(j)

	if js.Done {
		// Concluded before the failover: keep the terminal state visible
		// (the per-cell payloads were delivered by the old leader and are
		// not replicated — re-run the cells to regenerate them).
		j.Conclude(js.State, js.Error)
		c.mu.Lock()
		c.jobs[id] = cj
		c.order = append(c.order, id)
		c.jobsAdopted++
		c.mu.Unlock()
		return
	}

	// Rebuild groups from journaled assignments; cells whose assignment
	// never reached the journal (the leader died between admission and
	// forwarding) are re-placed from scratch — their deterministic
	// idempotency keys make a racing duplicate submit harmless.
	covered := make(map[int]bool)
	var groups []*group
	for gi, a := range js.Groups {
		if a.RemoteID == "" || len(a.Idxs) == 0 {
			continue
		}
		groups = append(groups, &group{gi: gi, idxs: a.Idxs, worker: a.Worker,
			remoteID: a.RemoteID, adopted: true})
		for _, i := range a.Idxs {
			covered[i] = true
		}
	}
	byOwner := make(map[string][]int)
	var owners []string
	for i, sp := range js.Rec.Specs {
		if covered[i] {
			continue
		}
		o := c.ring.Owner(sp.Label())
		if _, ok := byOwner[o]; !ok {
			owners = append(owners, o)
		}
		byOwner[o] = append(byOwner[o], i)
	}
	sort.Strings(owners)
	for k, o := range owners {
		groups = append(groups, &group{gi: len(js.Groups) + k, idxs: byOwner[o], worker: c.chooseWorker(o)})
	}
	if len(groups) == 0 {
		j.Conclude(service.JobFailed, "cluster: adopted job has no placeable cells")
	}
	cj.groups = groups
	cj.pending = len(groups)

	tn := service.NormTenant(js.Rec.Tenant)
	c.mu.Lock()
	c.jobs[id] = cj
	c.order = append(c.order, id)
	c.jobsAdopted++
	if len(groups) > 0 {
		// The previous leader admitted this work; re-admitting could
		// refuse it, so the quota charge is restored unconditionally.
		c.chargeTenantLocked(tn, len(js.Rec.Specs))
	}
	if js.Rec.IdemKey != "" {
		c.idem[js.Rec.IdemKey] = id
	}
	c.mu.Unlock()
	if len(groups) == 0 {
		return
	}

	j.Conclude(service.JobRunning, "")
	for _, g := range cj.groups {
		c.wg.Add(1)
		go func(g *group) {
			defer c.wg.Done()
			c.runGroup(cj, g)
			c.groupDone(cj)
		}(g)
	}
}
