package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"smtexplore/internal/service"
)

// flakyDaemon wraps a real service handler with scripted failures and
// returns the address plus the service for registry assertions.
func flakyDaemon(t *testing.T, cfg service.Config, wrap func(http.Handler) http.Handler) (string, *service.Service) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), svc
}

// A submit whose response is lost (the daemon accepted the job, the
// client saw a 503) is retried and deduplicated by the content-keyed
// Idempotency-Key: one job, not two.
func TestSubmitRetryIsIdempotent(t *testing.T) {
	var lost atomic.Bool
	addr, svc := flakyDaemon(t, service.Config{Workers: 1, MaxActive: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && lost.CompareAndSwap(false, true) {
					// The daemon processes the submit, but the response
					// never reaches the client.
					next.ServeHTTP(httptest.NewRecorder(), r)
					w.WriteHeader(http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		})

	// Occupy the single worker so the test job stays queued (a live job
	// is what holds its idempotency key).
	blocker, err := ctl(t, addr, "submit", "-f", blockerBatch(t))
	if err != nil {
		t.Fatal(err)
	}

	out, err := ctl(t, addr, "submit", "-stream", "fadd", "-window", "2000")
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	id := strings.TrimSpace(out)
	if id == "" {
		t.Fatal("no job ID from retried submit")
	}
	if got := len(svc.Jobs()); got != 2 {
		t.Errorf("%d jobs in the registry, want 2 (blocker + one deduplicated submit)", got)
	}
	for _, jid := range []string{strings.TrimSpace(blocker), id} {
		if _, err := ctl(t, addr, "cancel", jid); err != nil {
			t.Errorf("cancel %s: %v", jid, err)
		}
	}
}

// A 429 backpressure response is retried after the mandated delay until
// the queue drains, instead of failing the submission.
func TestSubmitRetriesBackpressure(t *testing.T) {
	var rejected atomic.Int32
	addr, _ := flakyDaemon(t, service.Config{Workers: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && rejected.Add(1) <= 2 {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				next.ServeHTTP(w, r)
			})
		})
	out, err := ctl(t, addr, "submit", "-stream", "fadd", "-window", "2000")
	if err != nil {
		t.Fatalf("submit through 429s: %v", err)
	}
	if strings.TrimSpace(out) == "" {
		t.Fatal("no job ID")
	}
	if got := rejected.Load(); got < 3 {
		t.Errorf("submit endpoint hit %d times, want >= 3 (two rejections + success)", got)
	}
}

// abortAfterFlush cuts an SSE connection after its first flush, so the
// client sees a mid-stream drop with events already delivered.
type abortAfterFlush struct {
	http.ResponseWriter
	flushed bool
}

func (a *abortAfterFlush) Flush() {
	if a.flushed {
		panic(http.ErrAbortHandler)
	}
	a.flushed = true
	a.ResponseWriter.(http.Flusher).Flush()
}

func (a *abortAfterFlush) Write(p []byte) (int, error) {
	if a.flushed {
		panic(http.ErrAbortHandler)
	}
	return a.ResponseWriter.Write(p)
}

// wait survives a dropped SSE stream: it reconnects with Last-Event-ID
// and finishes with the correct outcome, without duplicating events.
func TestWaitReconnectsDroppedStream(t *testing.T) {
	var eventsCalls atomic.Int32
	addr, _ := flakyDaemon(t, service.Config{Workers: 1},
		func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasSuffix(r.URL.Path, "/events") && eventsCalls.Add(1) == 1 {
					next.ServeHTTP(&abortAfterFlush{ResponseWriter: w}, r)
					return
				}
				next.ServeHTTP(w, r)
			})
		})

	out, err := ctl(t, addr, "submit", "-stream", "fadd,iload", "-window", "2000")
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out)
	out, err = ctl(t, addr, "wait", id)
	if err != nil {
		t.Fatalf("wait across dropped stream: %v", err)
	}
	if !strings.Contains(out, id+" done") {
		t.Errorf("wait output %q lacks %q", out, id+" done")
	}
	if got := eventsCalls.Load(); got != 2 {
		t.Errorf("events endpoint hit %d times, want 2 (drop + reconnect)", got)
	}
	if n := strings.Count(out, "cell 0 ("); n != 1 {
		t.Errorf("cell 0 reported %d times across reconnect, want exactly once:\n%s", n, out)
	}
}
