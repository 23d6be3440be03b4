package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"smtexplore/internal/service"
)

// HA roles.
const (
	RoleLeader  = "leader"
	RoleStandby = "standby"
)

// HAConfig configures one half of an active/standby coordinator pair.
type HAConfig struct {
	// Name is this coordinator's identity (lease holder name). Required.
	Name string
	// Addr is the client-facing address advertised in the lease: what
	// the standby hands out in X-Cluster-Leader redirects.
	Addr string
	// Dir is the shared HA state directory — lease, term claims, and
	// routing journal. Both coordinators must point at the same one
	// (conventionally <store>/ha, riding the store's shared filesystem).
	Dir string
	// TTL is the leadership lease window (<= 0 → 2s). Failover detection
	// time is bounded by TTL plus one renew tick.
	TTL time.Duration
	// Peers lists the other coordinator endpoints (operator display).
	Peers []string
	// Coordinator is the embedded coordinator configuration; Journal,
	// OnForward and their lifecycle are owned by the HA node.
	Coordinator Config
	// Log receives one-line role transitions (nil → discard).
	Log io.Writer
}

// HANode runs one coordinator of an HA pair: a lease-driven loop that
// promotes to leader when the lease is free (cold start, expiry, theft
// after the leader dies) and demotes the moment a journal append or
// renewal discovers the lease is lost. While standby it tails the
// leader's routing journal so promotion is an adoption, not a cold
// start.
type HANode struct {
	cfg   HAConfig
	lease *Lease
	stop  chan struct{}
	wg    sync.WaitGroup
	log   io.Writer

	mu      sync.Mutex
	role    string
	term    uint64
	coord   *Coordinator
	handler http.Handler // leader: coord.Handler(), cached per promotion
	journal *RJournal
	tail    *JournalTail
	// leaderSt is the last lease advertisement observed while standby —
	// the redirect target.
	leaderSt   LeaseState
	haveLeader bool
	// hb tracks worker heartbeats reaching THIS node (workers beat to
	// every coordinator), so a standby shows the fleet too.
	hb map[string]hbEntry

	promotions, demotions uint64
	failover              time.Duration // lease expiry → first successful forward
	failoverSet           bool
	closed                bool
}

type hbEntry struct {
	addr string
	seen time.Time
}

// NewHA starts the node (as standby; the first tick may promote it).
func NewHA(cfg HAConfig) (*HANode, error) {
	lease, err := NewLease(cfg.Dir, cfg.Name, cfg.Addr, cfg.TTL)
	if err != nil {
		return nil, err
	}
	log := cfg.Log
	if log == nil {
		log = io.Discard
	}
	n := &HANode{
		cfg:   cfg,
		lease: lease,
		stop:  make(chan struct{}),
		log:   log,
		role:  RoleStandby,
		tail:  NewJournalTail(cfg.Dir),
		hb:    make(map[string]hbEntry),
	}
	n.wg.Add(1)
	go n.loop()
	return n, nil
}

// Close demotes (releasing the lease so the peer promotes without
// waiting out the TTL) and stops the loop.
func (n *HANode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
	n.mu.Lock()
	wasLeader := n.role == RoleLeader
	term := n.term
	n.mu.Unlock()
	if wasLeader {
		n.demote(nil)
		n.lease.Release(term)
	}
}

// Role returns the current role and term.
func (n *HANode) Role() (string, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.term
}

// Coordinator returns the live coordinator while leader, nil otherwise.
func (n *HANode) Coordinator() *Coordinator {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleLeader {
		return n.coord
	}
	return nil
}

func (n *HANode) loop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.lease.RenewEvery())
	defer tick.Stop()
	for {
		n.tick()
		select {
		case <-n.stop:
			return
		case <-tick.C:
		}
	}
}

func (n *HANode) tick() {
	n.mu.Lock()
	role, term := n.role, n.term
	n.mu.Unlock()

	if role == RoleLeader {
		if err := n.lease.Renew(term); err != nil {
			n.demote(err)
		}
		return
	}

	// Standby: watch the lease, tail the journal, promote on expiry.
	st, ok, err := ReadLease(n.cfg.Dir)
	if err == nil && ok && !st.Expired(time.Now()) && st.Holder != n.cfg.Name {
		n.mu.Lock()
		n.leaderSt, n.haveLeader = st, true
		n.mu.Unlock()
		n.tail.Poll()
		return
	}
	// Lease absent, expired, or (stale) ours: try to take over.
	wonTerm, won, err := n.lease.TryAcquire()
	if err != nil || !won {
		n.tail.Poll()
		return
	}
	n.promote(wonTerm, st, ok)
}

// promote turns this node into the leader for term: repair and open the
// journal under the new term, build a coordinator fenced by the lease,
// and adopt every journaled worker and live job. prev is the lease
// advertisement that just expired (the failover-latency epoch).
func (n *HANode) promote(term uint64, prev LeaseState, hadPrev bool) {
	// Failover latency epoch: the moment the old leader's lease lapsed.
	var expiry time.Time
	if hadPrev && prev.Holder != n.cfg.Name {
		expiry = prev.Renewed.Add(prev.TTL())
	}

	journal, err := OpenRJournal(n.cfg.Dir, term, func() error { return n.lease.Check(term) },
		func(err error) { n.demote(err) })
	if err != nil {
		// Unreadable journal directory: stay standby and let the next tick
		// retry — the lease we hold will lapse if we never recover.
		fmt.Fprintf(n.log, "smtd: ha %s: promotion aborted: %v\n", n.cfg.Name, err)
		return
	}

	ccfg := n.cfg.Coordinator
	ccfg.Journal = journal
	ccfg.OnForward = func() {
		if expiry.IsZero() {
			return
		}
		n.mu.Lock()
		if !n.failoverSet {
			n.failoverSet = true
			n.failover = max(time.Since(expiry), 0)
		}
		d := n.failover
		n.mu.Unlock()
		fmt.Fprintf(n.log, "smtd: ha %s: failover complete in %s (lease expiry to first forward)\n", n.cfg.Name, d)
	}
	coord := New(ccfg)

	// Adopt the journaled world, then any workers whose heartbeats hit
	// this node while it was standby (covers a journal that never saw a
	// late joiner).
	coord.Adopt(journal.State())
	n.mu.Lock()
	beats := make(map[string]hbEntry, len(n.hb))
	for k, v := range n.hb {
		beats[k] = v
	}
	n.mu.Unlock()
	for name, e := range beats {
		if w, _ := coord.worker(name); w == nil && time.Since(e.seen) < 5*time.Second {
			coord.AddWorker(coord.dial(name, e.addr))
		}
	}

	n.mu.Lock()
	n.role, n.term = RoleLeader, term
	n.coord = coord
	n.handler = coord.Handler()
	n.journal = journal
	n.tail = nil
	n.promotions++
	n.haveLeader = false
	n.mu.Unlock()
	fmt.Fprintf(n.log, "smtd: ha %s: promoted to leader (term %d, %d jobs adopted)\n",
		n.cfg.Name, term, len(journal.State().Jobs))
}

// demote steps down to standby: the coordinator stops watching its
// groups (the remote jobs keep running on the workers for the new
// leader to adopt) and the journal is closed. Idempotent.
func (n *HANode) demote(cause error) {
	n.mu.Lock()
	if n.role != RoleLeader {
		n.mu.Unlock()
		return
	}
	coord, journal := n.coord, n.journal
	n.role = RoleStandby
	n.coord, n.handler, n.journal = nil, nil, nil
	n.tail = NewJournalTail(n.cfg.Dir)
	n.demotions++
	n.mu.Unlock()
	if coord != nil {
		coord.Close()
	}
	if journal != nil {
		journal.Close()
	}
	if cause != nil {
		fmt.Fprintf(n.log, "smtd: ha %s: demoted to standby: %v\n", n.cfg.Name, cause)
	} else {
		fmt.Fprintf(n.log, "smtd: ha %s: demoted to standby\n", n.cfg.Name)
	}
}

// Topology is the HA-aware fleet snapshot: the coordinator's view when
// leading, the heartbeat + journal view when standing by.
func (n *HANode) Topology() Topology {
	n.mu.Lock()
	role, term := n.role, n.term
	coord := n.coord
	tail := n.tail
	leaderSt, haveLeader := n.leaderSt, n.haveLeader
	promotions, demotions := n.promotions, n.demotions
	failover, failoverSet := n.failover, n.failoverSet
	beats := make(map[string]hbEntry, len(n.hb))
	for k, v := range n.hb {
		beats[k] = v
	}
	n.mu.Unlock()

	var t Topology
	if role == RoleLeader && coord != nil {
		t = coord.Topology()
		t.Role = RoleLeader
		t.LeaderAddr = n.cfg.Addr
		t.LeaseTerm = term
		if j := n.journalRef(); j != nil {
			t.JournalSeq = j.Seq()
		}
	} else {
		t.Role = RoleStandby
		if haveLeader {
			t.LeaderAddr = leaderSt.Addr
			t.LeaseTerm = leaderSt.Term
		}
		if tail != nil {
			tail.Poll()
			t.JournalSeq = tail.Seq()
			t.StandbyLagBytes = tail.Lag()
		}
		// The standby's fleet view: workers heartbeating to this node.
		for _, name := range sortedHB(beats) {
			e := beats[name]
			age := time.Since(e.seen)
			alive := age < 2*time.Second
			t.Workers = append(t.Workers, WorkerInfo{
				Name: name, Addr: e.addr, Alive: alive,
				LastHeartbeatAgeSeconds: age.Seconds(),
			})
			if alive {
				t.Live++
			}
		}
	}
	t.Promotions = promotions
	t.Demotions = demotions
	if failoverSet {
		t.FailoverLatencySeconds = failover.Seconds()
	}
	t.Peers = n.cfg.Peers
	return t
}

func (n *HANode) journalRef() *RJournal {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.journal
}

func sortedHB(m map[string]hbEntry) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Handler serves the HA-aware API. The leader serves the full
// coordinator surface; a standby answers the cluster/health/metrics
// introspection itself and 503s everything else with an
// X-Cluster-Leader redirect so multi-endpoint clients jump straight to
// the leader.
func (n *HANode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, n.Topology())
	})
	mux.HandleFunc("POST /v1/cluster/register", n.handleRegister)
	mux.HandleFunc("GET /healthz", n.handleHealthz)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("/", n.handleProxy)
	return mux
}

// handleRegister notes the heartbeat locally (standbys track the fleet
// through it), then hands it to the coordinator when leading.
func (n *HANode) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Addr == "" {
		service.WriteError(w, http.StatusBadRequest, "missing addr")
		return
	}
	name := req.Name
	if name == "" {
		name = req.Addr
	}
	n.mu.Lock()
	n.hb[name] = hbEntry{addr: req.Addr, seen: time.Now()}
	coord := n.coord
	n.mu.Unlock()
	if coord != nil {
		coord.AddWorker(coord.dial(name, req.Addr))
	}
	service.WriteJSON(w, http.StatusOK, n.Topology())
}

func (n *HANode) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t := n.Topology()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if t.Role == RoleLeader && t.Live == 0 {
		http.Error(w, "no live workers", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, t.Role)
}

func (n *HANode) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t := n.Topology()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := service.PromWriter{W: w}
	roleVal := 0
	if t.Role == RoleLeader {
		roleVal = 1
	}
	p.Gauge("smtd_ha_leader", "Whether this coordinator currently leads the pair.", roleVal)
	p.Gauge("smtd_ha_lease_term", "Current leadership term observed by this node.", t.LeaseTerm)
	p.Counter("smtd_ha_promotions_total", "Times this node promoted to leader.", t.Promotions)
	p.Counter("smtd_ha_demotions_total", "Times this node demoted to standby.", t.Demotions)
	p.Gauge("smtd_ha_journal_seq", "Last routing-journal sequence applied or written.", t.JournalSeq)
	p.Gauge("smtd_ha_standby_lag_bytes", "Journal bytes seen but not yet applied.", t.StandbyLagBytes)
	p.Gauge("smtd_ha_failover_latency_seconds", "Lease expiry to first successful forward on the most recent promotion.", t.FailoverLatencySeconds)
	n.mu.Lock()
	coord := n.coord
	n.mu.Unlock()
	if coord != nil {
		// The leader appends its coordinator's families.
		coord.writeMetrics(p)
	}
}

// handleProxy covers the job API: served directly when leading,
// redirected when standing by.
func (n *HANode) handleProxy(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	h := n.handler
	leaderAddr := ""
	if n.haveLeader {
		leaderAddr = n.leaderSt.Addr
	}
	n.mu.Unlock()
	if h != nil {
		h.ServeHTTP(w, r)
		return
	}
	if leaderAddr != "" {
		w.Header().Set("X-Cluster-Leader", leaderAddr)
	}
	w.Header().Set("Retry-After", "1")
	service.WriteError(w, http.StatusServiceUnavailable,
		"not the leader; retry against "+orUnknown(leaderAddr))
}

func orUnknown(s string) string {
	if s == "" {
		return "the current leader (unknown yet)"
	}
	return s
}
