package api

import (
	"context"
	"log"
	"math/rand/v2"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// retrier retries transient HTTP failures with capped exponential
// backoff and full jitter, honouring Retry-After when the server names
// a delay. Transport errors and 502/503/504 are transient (a daemon
// answers 503 for a journal that could not persist the job, a standby
// coordinator for a write it cannot take — both explicitly safe to
// retry); a 429 is transient only when shed is set. Anything else is
// the caller's problem on the first try.
type retrier struct {
	max  int           // retries after the first attempt
	shed bool          // retry 429 (queue backpressure, tenant quota)
	base time.Duration // first backoff step
	cap  time.Duration // backoff ceiling
	// sleep waits between attempts; the default aborts the wait the
	// moment ctx is cancelled, so ^C interrupts a long mandated
	// Retry-After instead of serving it out. Tests stub it.
	sleep func(ctx context.Context, d time.Duration) error
	// rng draws the backoff jitter. Each retrier owns its source,
	// seeded per process, so jitter stays independent of anything else
	// drawing from the global source and tests can inject a fixed seed.
	// mu guards it: one client serves many goroutines.
	mu  sync.Mutex
	rng *rand.Rand
}

func newRetrier(max int, shed bool) *retrier {
	return &retrier{
		max:   max,
		shed:  shed,
		base:  200 * time.Millisecond,
		cap:   5 * time.Second,
		sleep: sleepCtx,
		rng:   rand.New(rand.NewPCG(uint64(os.Getpid()), uint64(time.Now().UnixNano()))),
	}
}

// sleepCtx pauses for d or until ctx is cancelled, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryAfter is the response's Retry-After hint in whole seconds, 0
// when absent or malformed.
func retryAfter(resp *http.Response) time.Duration {
	if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return 0
}

// retryable reports whether the outcome is worth retrying.
func (r *retrier) retryable(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	case http.StatusTooManyRequests:
		return r.shed
	}
	return false
}

// do runs attempt until it yields a non-retryable outcome, the budget
// is spent, or ctx is cancelled mid-backoff, logging each retry. The
// attempt closure must build a fresh request every call (bodies are
// single-use). The caller owns the final response's body; intermediate
// ones are closed here.
func (r *retrier) do(ctx context.Context, what string, attempt func() (*http.Response, error)) (*http.Response, error) {
	delay := r.base
	for try := 0; ; try++ {
		resp, err := attempt()
		if try >= r.max || !r.retryable(resp, err) {
			return resp, err
		}
		wait := delay
		if err == nil {
			if mandated := retryAfter(resp); mandated > 0 {
				wait = mandated
			}
		}
		// Full jitter: a uniform draw from (0, wait] spreads a herd of
		// retrying clients out instead of letting it reconverge.
		r.mu.Lock()
		wait = time.Duration(1 + r.rng.Int64N(int64(wait)))
		r.mu.Unlock()
		if err != nil {
			log.Printf("%s: %v; retrying in %s (%d/%d)", what, err, wait.Round(time.Millisecond), try+1, r.max)
		} else {
			resp.Body.Close()
			log.Printf("%s: %s; retrying in %s (%d/%d)", what, resp.Status, wait.Round(time.Millisecond), try+1, r.max)
		}
		if serr := r.sleep(ctx, wait); serr != nil {
			// Cancelled mid-backoff: surface the cancellation, not the
			// transient failure the retry would have papered over.
			return nil, serr
		}
		if delay < r.cap {
			delay = min(2*delay, r.cap)
		}
	}
}
