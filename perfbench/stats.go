package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is mostly noise.
const minBeyond = 10

// pct is one percentile of a latency population, with the sample count
// it rests on.
type pct struct {
	P      float64 // quantile level, e.g. 0.99
	Value  float64
	N      int // samples in the population
	Beyond int // samples strictly above the rank the value was read at
}

// ok reports whether the percentile has enough samples beyond it.
func (p pct) ok() bool { return p.N > 0 && p.Beyond >= minBeyond }

// percentile reads the nearest-rank p-quantile of xs (xs is not
// modified). An empty population yields N = 0 and Value = NaN.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{P: p, Value: math.NaN()}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return pct{P: p, Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the midpoint of xs (mean of the two middle values for an
// even count); NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ledger counts operation outcomes. Every attempted op ends in exactly
// one bucket; only ok counts toward goodput.
type ledger struct {
	Attempted  int
	OK         int // completed and equal to the oracle
	Refused    int // 429/503 at submission
	Failed     int // an error, a failed cell, or a failed request
	Lost       int // still unfinished at the settle deadline
	Mismatched int // completed, but differing from the oracle
}

// Op outcomes other than plain failures.
var errLost = errors.New("unfinished at the settle deadline")

// errRefused is a 429 or 503 submission refusal.
type errRefused struct{ status int }

func (e errRefused) Error() string { return fmt.Sprintf("refused with HTTP %d", e.status) }

// mismatch is a result that completed but differs from the oracle.
type mismatch struct{ error }

// record files one op's outcome and reports whether it counts toward
// goodput; anything but a refusal or a loss is printed.
func (l *ledger) record(err error) bool {
	l.Attempted++
	switch {
	case err == nil:
		l.OK++
		return true
	case errors.As(err, new(errRefused)):
		l.Refused++
		return false
	case errors.Is(err, errLost):
		l.Lost++
		return false
	case errors.As(err, new(mismatch)):
		l.Mismatched++
	default:
		l.Failed++
	}
	fmt.Println("op failed:", err)
	return false
}

// goodput is the share of attempted ops that completed and verified.
func (l ledger) goodput() float64 {
	if l.Attempted == 0 {
		return 0
	}
	return float64(l.OK) / float64(l.Attempted)
}

// failures is every attempted op that did not count toward goodput.
func (l ledger) failures() int { return l.Attempted - l.OK }

// consistent reports whether the buckets add up to the attempts.
func (l ledger) consistent() bool {
	return l.OK+l.Refused+l.Failed+l.Lost+l.Mismatched == l.Attempted
}

// dueLatency is an open-loop op's latency: measured from when the op
// was due, not from when the generator got round to sending it, so a
// generator or system stall is charged to every op it delayed.
func dueLatency(due, end time.Time) time.Duration { return end.Sub(due) }

// lag is how late the generator sent an op.
func lag(due, sent time.Time) time.Duration { return sent.Sub(due) }

// jobTimes are the timestamps one job passes through, as the client
// (and the benchmark's decorators) observe them. Zero fields are phases
// the workload does not have: Due is zero for closed loops, the worker
// times are zero outside a cluster.
type jobTimes struct {
	Due      time.Time // open loop: when the job was scheduled
	Post     time.Time // submit request sent
	Ack      time.Time // submit response received
	WSubmit  time.Time // cluster: coordinator's forward to the worker began
	Running  time.Time // first "running" event (worker job on a cluster)
	Done     time.Time // terminal state (worker job on a cluster)
	CoordEnd time.Time // cluster: coordinator job terminal
	Get      time.Time // result request sent
	End      time.Time // result response received
}

// phases tiles a job's latency into named phases. On a cluster the hop
// is everything the coordinator adds around the worker's job: the
// forward before it and the progress-poll delay after it. The phases
// telescope, so their sum differs from the total only by the client's
// own gap between seeing the job finish and asking for its result; that
// remainder is returned as unaccounted.
func phases(t jobTimes) (ph map[string]time.Duration, total, unaccounted time.Duration) {
	start := t.Post
	if !t.Due.IsZero() {
		start = t.Due
	}
	ph = map[string]time.Duration{
		"submit": t.Ack.Sub(t.Post),
		"result": t.End.Sub(t.Get),
	}
	if !t.Due.IsZero() {
		ph["gen_lag"] = t.Post.Sub(t.Due)
	}
	if t.WSubmit.IsZero() {
		ph["queue"] = t.Running.Sub(t.Ack)
		ph["exec"] = t.Done.Sub(t.Running)
	} else {
		ph["hop"] = t.WSubmit.Sub(t.Ack) + t.CoordEnd.Sub(t.Done)
		ph["queue"] = t.Running.Sub(t.WSubmit)
		ph["exec"] = t.Done.Sub(t.Running)
	}
	total = t.End.Sub(start)
	var sum time.Duration
	for _, d := range ph {
		sum += d
	}
	return ph, total, total - sum
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// everyOther returns tr for even i and nil for odd i: a traced run
// traces half its passes or jobs, interleaved with untraced ones.
func everyOther(tr *tracer, i int) *tracer {
	if i%2 == 0 {
		return tr
	}
	return nil
}
