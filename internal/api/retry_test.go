package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

// fakeAttempt builds an attempt closure that replays a scripted status
// sequence (0 = transport error).
func fakeAttempt(t *testing.T, codes []int, calls *int) func() (*http.Response, error) {
	t.Helper()
	return func() (*http.Response, error) {
		if *calls >= len(codes) {
			t.Fatalf("attempt called %d times, scripted %d", *calls+1, len(codes))
		}
		code := codes[*calls]
		*calls++
		if code == 0 {
			return nil, fmt.Errorf("dial tcp: connection refused")
		}
		rec := httptest.NewRecorder()
		if code == http.StatusTooManyRequests {
			rec.Header().Set("Retry-After", "1")
		}
		rec.WriteHeader(code)
		return rec.Result(), nil
	}
}

func TestRetrierBackoffAndOutcomes(t *testing.T) {
	ctx := context.Background()
	var slept []time.Duration
	r := newRetrier(3, true)
	r.sleep = func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil }

	// Transport error, then 503, then success: two retries, then done.
	calls := 0
	resp, err := r.do(ctx, "x", fakeAttempt(t, []int{0, http.StatusServiceUnavailable, http.StatusOK}, &calls))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("do = (%v, %v), want 200", resp, err)
	}
	if calls != 3 || len(slept) != 2 {
		t.Fatalf("calls=%d slept=%d, want 3 attempts with 2 sleeps", calls, len(slept))
	}
	for i, d := range slept {
		if d <= 0 || d > r.cap {
			t.Errorf("sleep %d = %v, want within (0, %v]", i, d, r.cap)
		}
	}

	// 429 with Retry-After: 1 — the jittered wait must respect the
	// server's mandate as its ceiling.
	slept = nil
	calls = 0
	resp, err = r.do(ctx, "x", fakeAttempt(t, []int{http.StatusTooManyRequests, http.StatusOK}, &calls))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("429 do = (%v, %v)", resp, err)
	}
	if len(slept) != 1 || slept[0] <= 0 || slept[0] > time.Second {
		t.Errorf("Retry-After sleep %v, want within (0, 1s]", slept)
	}

	// Non-retryable statuses return on the first attempt.
	calls = 0
	resp, _ = r.do(ctx, "x", fakeAttempt(t, []int{http.StatusBadRequest}, &calls))
	if calls != 1 || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("400: %d calls, status %d; want 1 call passing it through", calls, resp.StatusCode)
	}

	// An exhausted budget hands back the last failing response.
	r2 := newRetrier(1, true)
	r2.sleep = func(context.Context, time.Duration) error { return nil }
	calls = 0
	resp, _ = r2.do(ctx, "x", fakeAttempt(t, []int{http.StatusServiceUnavailable, http.StatusServiceUnavailable}, &calls))
	if calls != 2 || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("exhausted: %d calls, status %d; want 2 calls and the 503", calls, resp.StatusCode)
	}

	// max 0 disables retrying entirely.
	r3 := newRetrier(0, true)
	calls = 0
	if _, err := r3.do(ctx, "x", fakeAttempt(t, []int{0}, &calls)); err == nil || calls != 1 {
		t.Errorf("max-retries 0: err=%v calls=%d, want the transport error after 1 call", err, calls)
	}
}

// The regression the cluster smoke depends on: a cancellation (^C)
// during a long server-mandated Retry-After returns promptly with the
// context error, instead of sleeping out the full mandate. Before the
// fix, the jittered wait used time.Sleep and a 1-hour Retry-After held
// the process hostage.
func TestRetrierCancelledMidBackoffReturnsPromptly(t *testing.T) {
	r := newRetrier(3, true) // real sleepCtx, no stub: the select is under test
	ctx, cancel := context.WithCancel(context.Background())
	attempt := func() (*http.Response, error) {
		rec := httptest.NewRecorder()
		rec.Header().Set("Retry-After", "3600")
		rec.WriteHeader(http.StatusTooManyRequests)
		return rec.Result(), nil
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, err := r.do(ctx, "x", attempt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("do under cancellation = (%v, %v), want context.Canceled", resp, err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to surface; the backoff wait is not honouring ctx", elapsed)
	}
}

// The backoff jitter must come from the retrier's own seeded source,
// not the process-global one: identical seeds draw identical jitter,
// and draws elsewhere in the process cannot perturb the sequence.
func TestRetryJitterIsOwnSeededSource(t *testing.T) {
	draws := func(seed uint64) []time.Duration {
		r := newRetrier(3, true)
		r.rng = rand.New(rand.NewPCG(seed, seed))
		var waits []time.Duration
		r.sleep = func(_ context.Context, d time.Duration) error {
			waits = append(waits, d)
			return nil
		}
		calls := 0
		r.do(context.Background(), "test", func() (*http.Response, error) {
			calls++
			return nil, fmt.Errorf("transient %d", calls)
		})
		return waits
	}
	a, b := draws(7), draws(7)
	if len(a) != 3 {
		t.Fatalf("expected 3 backoff waits, got %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	if c := draws(8); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatalf("different seeds drew identical jitter: %v", c)
	}
}

// One client serves many goroutines (loadgen submits every job through
// one): concurrent retries draw jitter from the shared source safely.
func TestRetrierConcurrentRetries(t *testing.T) {
	r := newRetrier(3, false)
	r.sleep = func(context.Context, time.Duration) error { return nil }
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls := 0
			r.do(context.Background(), "x", func() (*http.Response, error) {
				calls++
				return nil, fmt.Errorf("transient %d", calls)
			})
			if calls != 4 {
				t.Errorf("%d attempts, want 4 (1 + 3 retries)", calls)
			}
		}()
	}
	wg.Wait()
}
