package api

import (
	"context"
	"net/http"
	"testing"
)

// One picker serves smtctl's -server list and loadgen's -target list:
// transport errors rotate (wrapping), a 503 with X-Cluster-Leader jumps
// to the leader (learning one outside the list), "unknown" or no hint
// rotates, and a success leaves the pick alone.
func TestEndpointsRotateAndFollowLeader(t *testing.T) {
	check := func(e *Endpoints, want, after string) {
		t.Helper()
		if got := e.Addr(); got != want {
			t.Fatalf("%s: addr %q, want %q", after, got, want)
		}
	}
	redirect := func(leader string) *http.Response {
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{"X-Cluster-Leader": []string{leader}}}
	}

	e := NewEndpoints("a:1, b:2", "fallback:0")
	check(e, "a:1", "initial")
	if got := e.Base(); got != "http://a:1" {
		t.Fatalf("base %q, want http://a:1", got)
	}
	e.Observe(nil, context.DeadlineExceeded)
	check(e, "b:2", "transport error")
	e.Observe(nil, context.DeadlineExceeded)
	check(e, "a:1", "second transport error (wraps)")

	e.Observe(redirect("b:2"), nil)
	check(e, "b:2", "redirect to a listed leader")
	e.Observe(redirect("c:3"), nil)
	check(e, "c:3", "redirect to an unlisted leader (learned)")
	e.Observe(&http.Response{StatusCode: http.StatusAccepted, Header: http.Header{}}, nil)
	check(e, "c:3", "202")
	e.Observe(&http.Response{StatusCode: http.StatusOK, Header: http.Header{}}, nil)
	check(e, "c:3", "200")
	e.Observe(redirect("unknown"), nil)
	check(e, "a:1", "standby with no leader in sight (rotates)")
	e.Observe(&http.Response{StatusCode: http.StatusServiceUnavailable, Header: http.Header{}}, nil)
	check(e, "b:2", "503 without a hint (rotates)")

	check(NewEndpoints(" , ", "fallback:0"), "fallback:0", "empty list")
}
