package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
)

// smtctl builds its -server picker with the default daemon address as
// the fallback; these pin the behaviour the client relies on.
func newEndpoints(list string) *api.Endpoints { return api.NewEndpoints(list, "127.0.0.1:8377") }

func TestEndpointsRotateOnTransportError(t *testing.T) {
	e := newEndpoints("a:1, b:2")
	if got := e.Base(); got != "http://a:1" {
		t.Fatalf("initial base %q", got)
	}
	e.Observe(nil, context.DeadlineExceeded)
	if got := e.Base(); got != "http://b:2" {
		t.Fatalf("after transport error base %q, want http://b:2", got)
	}
	e.Observe(nil, context.DeadlineExceeded)
	if got := e.Base(); got != "http://a:1" {
		t.Fatalf("rotation should wrap, got %q", got)
	}
}

func TestEndpointsFollowLeaderRedirect(t *testing.T) {
	e := newEndpoints("a:1,b:2")
	resp := &http.Response{
		StatusCode: http.StatusServiceUnavailable,
		Header:     http.Header{"X-Cluster-Leader": []string{"b:2"}},
	}
	e.Observe(resp, nil)
	if got := e.Base(); got != "http://b:2" {
		t.Fatalf("redirect to listed leader: base %q, want http://b:2", got)
	}

	// A leader outside the -server list is learned, not dropped.
	resp.Header.Set("X-Cluster-Leader", "c:3")
	e.Observe(resp, nil)
	if got := e.Base(); got != "http://c:3" {
		t.Fatalf("redirect to unlisted leader: base %q, want http://c:3", got)
	}

	// "unknown" (standby with no lease in sight) rotates instead.
	resp.Header.Set("X-Cluster-Leader", "unknown")
	e.Observe(resp, nil)
	if got := e.Base(); got == "http://c:3" {
		t.Fatal("unknown leader should rotate away from the failing endpoint")
	}

	// 2xx outcomes leave the pick alone.
	cur := e.Base()
	e.Observe(&http.Response{StatusCode: http.StatusOK, Header: http.Header{}}, nil)
	if got := e.Base(); got != cur {
		t.Fatalf("success moved the endpoint: %q -> %q", cur, got)
	}
}

// A submit aimed at a dead endpoint plus a standby must land on the
// real daemon: the dead one rotates away on connection refused, the
// standby 503s with X-Cluster-Leader, and the retrier's next attempt
// follows it.
func TestClientFailsOverToLeader(t *testing.T) {
	leader := startDaemon(t, service.Config{Workers: 2})

	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cluster-Leader", leader)
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"not the leader"}`, http.StatusServiceUnavailable)
	}))
	defer standby.Close()

	// A port that refuses connections: bind, then close.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	servers := deadAddr + "," + strings.TrimPrefix(standby.URL, "http://")
	out, err := ctl(t, "ignored:0", "-server", servers, "submit", "-stream", "fadd,iload", "-window", "2000")
	if err != nil {
		t.Fatalf("submit through failover chain: %v", err)
	}
	id := strings.TrimSpace(out)
	if id == "" {
		t.Fatal("submit printed no job ID")
	}
	// The picker now points at the learned leader; wait reuses it.
	if out, err = ctl(t, leader, "wait", id); err != nil {
		t.Fatalf("wait on leader: %v (out %q)", err, out)
	}
}
