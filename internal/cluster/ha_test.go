package cluster

// HA pair tests against in-process fakes: journal adoption after
// promotion, failover on lease expiry, stale-leader demotion through
// the journal fence, standby redirects, and the slow-worker probe
// regression.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// TestSlowWorkerSurvivesProbes is the regression for the health prober
// counting slow-but-successful probes as strikes: a worker answering
// 200 in 5× the probe cadence (but inside ProbeTimeout) must stay on
// the ring.
func TestSlowWorkerSurvivesProbes(t *testing.T) {
	cfg := fastCfg() // HealthInterval 20ms → ProbeTimeout defaults to 2s
	c := New(cfg)
	defer c.Close()
	w := newFakeWorker("slow")
	w.healthDelay = 100 * time.Millisecond // 5× the probe cadence, well under ProbeTimeout
	c.AddWorker(w)

	// Under the old behaviour (probe deadline == HealthInterval) three
	// ticks were enough to evict; give it plenty.
	time.Sleep(500 * time.Millisecond)
	if !alive(c, "slow") {
		t.Fatal("slow-but-successful worker was evicted by the health prober")
	}

	// Sanity check the fix didn't break eviction of actually-dead
	// workers: transport errors must still strike.
	w.die()
	deadline := time.Now().Add(10 * time.Second)
	for alive(c, "slow") {
		if time.Now().After(deadline) {
			t.Fatal("dead worker never evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// seedJournal writes a canned routing history: worker w1, one live job
// assigned to it under remote ID w1-j1, and optionally a concluded job.
func seedJournal(t *testing.T, dir string, spec service.CellSpec, withAssign bool) {
	t.Helper()
	j, err := OpenRJournal(dir, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Worker("w1", "fake:w1"); err != nil {
		t.Fatal(err)
	}
	rec := JobRec{ID: "c0007", Specs: []service.CellSpec{spec}, Tenant: "light", IdemKey: "idem-7"}
	if err := j.JobStart(rec); err != nil {
		t.Fatal(err)
	}
	if withAssign {
		if err := j.Assign(AssignRec{Job: "c0007", Group: 0, Worker: "w1", RemoteID: "w1-j1", Idxs: []int{0}}); err != nil {
			t.Fatal(err)
		}
	}
}

func adoptSpec() service.CellSpec {
	return service.CellSpec{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}, Window: 10000}
}

func TestAdoptResumesLiveGroupWithoutResubmit(t *testing.T) {
	dir := t.TempDir()
	spec := adoptSpec()
	seedJournal(t, dir, spec, true)

	// The remote job already lives on the worker; the promoted
	// coordinator must resubscribe to it, not forward a duplicate.
	w := newFakeWorker("w1")
	w.jobs["w1-j1"] = service.JobResult{ID: "w1-j1", State: service.JobDone,
		Cells: []service.CellResult{{Index: 0, Label: spec.Label(), State: service.CellDone, CPI: []float64{1}}}}

	cfg := fastCfg()
	cfg.Dial = func(name, addr string) Worker { return w }
	c := New(cfg)
	defer c.Close()
	st, _, err := LoadRoutingState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Adopt(st)

	j, ok := c.Job("c0007")
	if !ok {
		t.Fatal("adopted job not resolvable")
	}
	waitJobDone(t, j)
	if state, msg := j.State(); state != service.JobDone {
		t.Fatalf("adopted job state %s (%s), want done", state, msg)
	}
	if got := j.Results()[0]; got.State != service.CellDone || len(got.CPI) != 1 {
		t.Fatalf("adopted job cell result %+v", got)
	}
	w.mu.Lock()
	submitted := w.submitted
	w.mu.Unlock()
	if submitted != 0 {
		t.Fatalf("adoption re-forwarded the group (%d submits); want 0 (adoption resubscribes)", submitted)
	}
	// The idempotency mapping is restored (live replays would alias) and
	// the ID sequence continues past the adopted ID instead of colliding.
	c.mu.Lock()
	idemID, seq := c.idem["idem-7"], c.seq
	c.mu.Unlock()
	if idemID != "c0007" {
		t.Fatalf("idem mapping after adoption: %q, want c0007", idemID)
	}
	if seq < 7 {
		t.Fatalf("seq %d did not advance past adopted ID c0007", seq)
	}
}

func TestAdoptForwardsUnassignedCells(t *testing.T) {
	// The old leader died between admission and forwarding: no Assign
	// record. The new leader must place and submit the cells itself.
	dir := t.TempDir()
	spec := adoptSpec()
	seedJournal(t, dir, spec, false)

	w := newFakeWorker("w1")
	cfg := fastCfg()
	cfg.Dial = func(name, addr string) Worker { return w }
	c := New(cfg)
	defer c.Close()
	st, _, err := LoadRoutingState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Adopt(st)

	j, ok := c.Job("c0007")
	if !ok {
		t.Fatal("adopted job not resolvable")
	}
	waitJobDone(t, j)
	if state, _ := j.State(); state != service.JobDone {
		t.Fatalf("state %s, want done", state)
	}
	w.mu.Lock()
	submitted := w.submitted
	w.mu.Unlock()
	if submitted != 1 {
		t.Fatalf("unassigned cells: %d submits, want 1 fresh forward", submitted)
	}
}

func TestAdoptKeepsConcludedJobResolvable(t *testing.T) {
	dir := t.TempDir()
	spec := adoptSpec()
	j1, err := OpenRJournal(dir, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1.JobStart(JobRec{ID: "c0003", Specs: []service.CellSpec{spec}, Tenant: "light"})
	j1.Conclude("c0003", service.JobDone, "")
	j1.Close()

	c := New(fastCfg())
	defer c.Close()
	st, _, err := LoadRoutingState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Adopt(st)
	j, ok := c.Job("c0003")
	if !ok {
		t.Fatal("concluded job vanished across failover")
	}
	if state, _ := j.State(); state != service.JobDone {
		t.Fatalf("state %s, want done", state)
	}
	// No tenant charge may linger for a terminal adoption.
	c.mu.Lock()
	charged := c.tenantJobs["light"]
	c.mu.Unlock()
	if charged != 0 {
		t.Fatalf("terminal adoption left %d in-flight tenant jobs", charged)
	}
}

func haCfg(t *testing.T, dir, name string, w *fakeWorker) HAConfig {
	t.Helper()
	ccfg := fastCfg()
	ccfg.Dial = func(string, string) Worker { return w }
	return HAConfig{
		Name: name, Addr: "127.0.0.1:0/" + name, Dir: dir,
		TTL: 200 * time.Millisecond, Coordinator: ccfg,
	}
}

func waitRole(t *testing.T, n *HANode, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if role, _ := n.Role(); role == want {
			return
		}
		if time.Now().After(deadline) {
			role, term := n.Role()
			t.Fatalf("node never became %s (still %s, term %d)", want, role, term)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHANodepromotesAfterLeaderDeath(t *testing.T) {
	// "Kill" a leader by seeding its journal and lease and then never
	// renewing — exactly what SIGKILL leaves on disk. The standby must
	// steal after expiry, adopt the journaled job, and record a failover
	// latency once the adopted group's stream delivers its first event.
	dir := t.TempDir()
	spec := adoptSpec()
	seedJournal(t, dir, spec, true)
	dead, err := NewLease(dir, "ca", "127.0.0.1:1", 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, won, err := dead.TryAcquire(); !won || err != nil {
		t.Fatalf("seed leader acquire: won=%v err=%v", won, err)
	}

	w := newFakeWorker("w1")
	w.jobs["w1-j1"] = service.JobResult{ID: "w1-j1", State: service.JobDone,
		Cells: []service.CellResult{{Index: 0, Label: spec.Label(), State: service.CellDone, CPI: []float64{1}}}}

	n, err := NewHA(haCfg(t, dir, "cb", w))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	waitRole(t, n, RoleLeader)

	c := n.Coordinator()
	if c == nil {
		t.Fatal("leader has no coordinator")
	}
	j, ok := c.Job("c0007")
	if !ok {
		t.Fatal("journaled job not adopted on promotion")
	}
	waitJobDone(t, j)
	if state, _ := j.State(); state != service.JobDone {
		t.Fatalf("adopted job state %s", state)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if top := n.Topology(); top.FailoverLatencySeconds > 0 {
			if top.Role != RoleLeader || top.LeaseTerm < 2 || top.Promotions != 1 {
				t.Fatalf("topology after failover: %+v", top)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failover latency never recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHANodeStaleLeaderDemotesOnFencedJournal(t *testing.T) {
	dir := t.TempDir()
	w := newFakeWorker("w1")
	n, err := NewHA(haCfg(t, dir, "ca", w))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	waitRole(t, n, RoleLeader)
	c := n.Coordinator()
	c.AddWorker(w)

	// The peer steals the lease out from under us (the on-disk state a
	// legitimate theft leaves behind after an undetected stall).
	thief, err := NewLease(dir, "cb", "127.0.0.1:2", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	_, term := n.Role()
	if err := thief.writeState(term+1, time.Now()); err != nil {
		t.Fatal(err)
	}

	// The very next journaled action hits the fence: the submit is
	// refused (never accepted un-replicated) and the node demotes.
	_, err = c.SubmitWith([]service.CellSpec{adoptSpec()}, service.SubmitOptions{})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale leader accepted a submit: err=%v, want ErrLeaseLost", err)
	}
	waitRole(t, n, RoleStandby)
	if n.Coordinator() != nil {
		t.Fatal("demoted node still exposes a coordinator")
	}
}

func TestHANodeStandbyRedirectsToLeader(t *testing.T) {
	dir := t.TempDir()
	// A live foreign lease pins this node to standby.
	other, err := NewLease(dir, "ca", "127.0.0.1:9001", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, won, err := other.TryAcquire(); !won || err != nil {
		t.Fatalf("foreign acquire: won=%v err=%v", won, err)
	}

	n, err := NewHA(haCfg(t, dir, "cb", newFakeWorker("w1")))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	// Give the loop a tick to observe the foreign lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if top := n.Topology(); top.LeaderAddr == "127.0.0.1:9001" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never observed the leader's lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"cells":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby submit: %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cluster-Leader"); got != "127.0.0.1:9001" {
		t.Fatalf("X-Cluster-Leader %q", got)
	}

	// Heartbeats are accepted and reflected in the standby topology.
	hb, err := http.Post(srv.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"name":"w1","addr":"127.0.0.1:7001"}`))
	if err != nil {
		t.Fatal(err)
	}
	var top Topology
	if err := json.NewDecoder(hb.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}
	hb.Body.Close()
	if top.Role != RoleStandby || len(top.Workers) != 1 || top.Workers[0].Name != "w1" || !top.Workers[0].Alive {
		t.Fatalf("standby topology after heartbeat: %+v", top)
	}

	// And the health probe names the role instead of 503ing.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("standby healthz: %d, want 200", hz.StatusCode)
	}
}

func TestHANodeGracefulHandover(t *testing.T) {
	// Closing the leader releases the lease; the peer promotes without
	// waiting out the TTL (both nodes share one directory here, as in a
	// real pair).
	dir := t.TempDir()
	w := newFakeWorker("w1")
	a, err := NewHA(haCfg(t, dir, "ca", w))
	if err != nil {
		t.Fatal(err)
	}
	waitRole(t, a, RoleLeader)
	b, err := NewHA(haCfg(t, dir, "cb", w))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitRole(t, b, RoleStandby)

	a.Close()
	waitRole(t, b, RoleLeader)
	if _, term := b.Role(); term < 2 {
		t.Fatalf("handover term %d, want >= 2", term)
	}
}
