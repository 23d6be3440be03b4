package api

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smtexplore/internal/service"
)

// dial builds a client for an httptest server: no retries, no timeout.
func dial(srv *httptest.Server) *Client {
	addr := strings.TrimPrefix(srv.URL, "http://")
	return NewClient(NewEndpoints(addr, addr), 0, 0, false)
}

// Follow against a real daemon: a full replay from -1 and a resume
// after seq N each deliver every event once, in order, and return the
// end state; an unknown job wraps ErrJobNotFound.
func TestFollowReplayResumeAndNotFound(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		svc.Close()
	}()
	c := dial(srv)
	ctx := context.Background()

	id, err := c.Submit(ctx, service.SubmitRequest{Cells: []service.CellSpec{
		{Type: service.TypeStream, Window: 2000, Streams: []service.StreamSpec{{Kind: "fadd"}}},
		{Type: service.TypeStream, Window: 2000, Streams: []service.StreamSpec{{Kind: "iload"}}},
	}}, "follow-test")
	if err != nil {
		t.Fatal(err)
	}
	follow := func(since int) []int {
		t.Helper()
		var seqs []int
		end, err := c.Follow(ctx, id, since, func(ev service.Event) { seqs = append(seqs, ev.Seq) })
		if err != nil {
			t.Fatalf("follow from %d: %v", since, err)
		}
		if end.State != service.JobDone || end.Job != id {
			t.Fatalf("follow from %d ended %+v, want %s done", since, end, id)
		}
		return seqs
	}
	all := follow(-1)
	if len(all) < 4 {
		t.Fatalf("full replay delivered %v, want the job and both cells' transitions", all)
	}
	for i, seq := range all {
		if seq != i {
			t.Fatalf("full replay delivered seqs %v, want 0..%d once each", all, len(all)-1)
		}
	}
	n := len(all) / 2
	rest := follow(n)
	if len(rest) != len(all)-n-1 {
		t.Fatalf("resume after %d delivered %v, want seqs %d..%d", n, rest, n+1, len(all)-1)
	}
	for i, seq := range rest {
		if seq != n+1+i {
			t.Fatalf("resume after %d delivered %v, want seqs %d..%d once each", n, rest, n+1, len(all)-1)
		}
	}

	if _, err := c.Follow(ctx, "j9999", -1, func(service.Event) {}); !errors.Is(err, ErrJobNotFound) {
		t.Fatalf("follow of an unknown job = %v, want ErrJobNotFound", err)
	}
}

// A 4xx submit comes back as a *RefusedError: a quota 429 carries its
// cause and Retry-After and is policy; a bare 429 is backpressure. A
// client that does not retry 429s sends each submission once.
func TestSubmitRefusals(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "3")
		if r.Header.Get("Idempotency-Key") == "quota" {
			w.Header().Set("X-Quota-Cause", service.QuotaQueuedJobs)
		}
		service.WriteError(w, http.StatusTooManyRequests, "refused")
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	c := NewClient(NewEndpoints(addr, addr), 3, 0, false)
	req := service.SubmitRequest{Cells: []service.CellSpec{{Type: service.TypeStream, Streams: []service.StreamSpec{{Kind: "fadd"}}}}}

	_, err := c.Submit(context.Background(), req, "quota")
	var refused *RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("quota 429 = %v, want a *RefusedError", err)
	}
	if refused.Status != http.StatusTooManyRequests || refused.Cause != service.QuotaQueuedJobs ||
		refused.RetryAfter != 3*time.Second || refused.Backpressure() {
		t.Fatalf("quota 429 = %+v (backpressure %v), want cause %s, Retry-After 3s, policy",
			refused, refused.Backpressure(), service.QuotaQueuedJobs)
	}

	_, err = c.Submit(context.Background(), req, "shed")
	if !errors.As(err, &refused) || !refused.Backpressure() {
		t.Fatalf("bare 429 = %v, want a backpressure *RefusedError", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d submissions, want 2: a 429 is final unless retryShed", got)
	}
}
