// Package api holds the client side of the smtd job API that smtctl and
// loadgen share.
package api

import (
	"net/http"
	"strings"
	"sync"
)

// Endpoints is a client's view of the server set: one address for a
// single daemon, several for an HA coordinator pair. Every request goes
// to the current address; Observe advances it when the server proves
// unreachable (transport error → rotate to the next) or names a better
// one (503 with X-Cluster-Leader → jump straight to the leader, a
// standby's redirect). With a retry loop that treats transport errors
// and 503 as transient, the next attempt lands on the new address, so a
// coordinator failover shows up as client latency rather than a client
// error. Safe for concurrent use: one request discovering a failover
// steers every caller.
type Endpoints struct {
	mu   sync.Mutex
	list []string // host:port entries
	cur  int
}

// NewEndpoints parses a comma-separated host:port list into a picker
// starting at the first entry; fallback is the one entry when the list
// names none.
func NewEndpoints(addrs, fallback string) *Endpoints {
	e := &Endpoints{}
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			e.list = append(e.list, a)
		}
	}
	if len(e.list) == 0 {
		e.list = []string{fallback}
	}
	return e
}

// Addr is the host:port the next request should use.
func (e *Endpoints) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.list[e.cur]
}

// Base is the URL prefix for the next request, "http://" + Addr.
func (e *Endpoints) Base() string { return "http://" + e.Addr() }

// Observe steers the pick from one request's outcome. It reads only the
// status and headers, so the caller may still consume resp.Body, and it
// only picks where the next attempt goes: backoff, Retry-After and
// giving up stay with the caller.
func (e *Endpoints) Observe(resp *http.Response, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		// Connection refused, reset, timeout: the endpoint is gone or
		// partitioned — try the next one.
		e.cur = (e.cur + 1) % len(e.list)
	case resp.StatusCode == http.StatusServiceUnavailable:
		if leader := resp.Header.Get("X-Cluster-Leader"); leader != "" && leader != "unknown" {
			e.jumpLocked(leader)
		} else {
			// A 503 without a leader hint (draining daemon, standby that
			// has not seen a lease yet): rotate and hope.
			e.cur = (e.cur + 1) % len(e.list)
		}
	}
}

// jumpLocked points cur at addr, learning it if the advertised leader
// is outside the list the caller gave.
func (e *Endpoints) jumpLocked(addr string) {
	for i, a := range e.list {
		if a == addr {
			e.cur = i
			return
		}
	}
	e.list = append(e.list, addr)
	e.cur = len(e.list) - 1
}
