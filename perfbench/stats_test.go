package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPercentileNearestRankAndBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
		ok     bool
	}{
		{0.5, 500, 500, true},
		{0.99, 990, 10, true},
		{0.995, 995, 5, false},
		{1, 1000, 0, false},
	} {
		got := percentile(xs, tc.p)
		if got.Value != tc.value || got.N != 1000 || got.Beyond != tc.beyond || got.ok() != tc.ok {
			t.Errorf("p%g = %+v (ok %v), want value %v, beyond %d, ok %v", 100*tc.p, got, got.ok(), tc.value, tc.beyond, tc.ok)
		}
	}
	if xs[0] != 1000 {
		t.Errorf("percentile reordered its input")
	}
	// p90 of 100 samples has exactly ten beyond it; of 99, only nine.
	if p := percentile(xs[:100], 0.9); !p.ok() || p.Beyond != 10 {
		t.Errorf("p90 of 100 = %+v, want 10 beyond", p)
	}
	if p := percentile(xs[:99], 0.9); p.ok() {
		t.Errorf("p90 of 99 = %+v, want fewer than 10 beyond", p)
	}
	if p := percentile(nil, 0.5); p.N != 0 || !math.IsNaN(p.Value) || p.ok() {
		t.Errorf("empty population = %+v", p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestGoodputCountsEveryLossAgainstAttempts(t *testing.T) {
	var l ledger
	for i, err := range []error{
		nil, nil, nil, nil, nil, nil,
		fmt.Errorf("submit: %w", errRefused{429}),
		errors.New("cell failed"),
		errLost,
		mismatch{errors.New("CPI differs")},
	} {
		if got, want := l.record(err), i < 6; got != want {
			t.Errorf("record(%v) = %v, want %v", err, got, want)
		}
	}
	if want := (ledger{Attempted: 10, OK: 6, Refused: 1, Failed: 1, Lost: 1, Mismatched: 1}); l != want {
		t.Fatalf("ledger = %+v, want %+v", l, want)
	}
	if !l.consistent() {
		t.Fatal("ledger should add up")
	}
	if g := l.goodput(); g != 0.6 {
		t.Errorf("goodput = %v, want 0.6", g)
	}
	if f := l.failures(); f != 4 {
		t.Errorf("failures = %d, want 4", f)
	}
	if (ledger{Attempted: 3, OK: 1}).consistent() {
		t.Error("an op in no bucket must make the ledger inconsistent")
	}
	if (ledger{}).goodput() != 0 {
		t.Error("no attempts is no goodput")
	}
}

func TestDueLatencyChargesGeneratorStalls(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(30 * time.Millisecond) // the generator ran late
	end := sent.Add(50 * time.Millisecond)
	if got := dueLatency(due, end); got != 80*time.Millisecond {
		t.Errorf("latency from due = %v, want 80ms", got)
	}
	if got := lag(due, sent); got != 30*time.Millisecond {
		t.Errorf("lag = %v, want 30ms", got)
	}
}

func TestPhasesTileTheJob(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }
	// Daemon: submit 0–2, queue 2–5, exec 5–9, client notices at 10,
	// result 10–11.
	ph, total, un := phases(jobTimes{Post: at(0), Ack: at(2), Running: at(5), Done: at(9), Get: at(10), End: at(11)})
	want := map[string]time.Duration{"submit": 2 * time.Millisecond, "queue": 3 * time.Millisecond, "exec": 4 * time.Millisecond, "result": time.Millisecond}
	for k, v := range want {
		if ph[k] != v {
			t.Errorf("daemon %s = %v, want %v", k, ph[k], v)
		}
	}
	if total != 11*time.Millisecond || un != time.Millisecond {
		t.Errorf("daemon total %v unaccounted %v, want 11ms and 1ms", total, un)
	}
	// Cluster, open loop: due 0, sent 1, acked 3, forwarded 2 (before
	// the ack reached the client), worker queue 2–4, exec 4–20,
	// coordinator sees it at 80, client at 80, result 80–81.
	ph, total, un = phases(jobTimes{Due: at(0), Post: at(1), Ack: at(3), WSubmit: at(2), Running: at(4), Done: at(20), CoordEnd: at(80), Get: at(80), End: at(81)})
	want = map[string]time.Duration{"gen_lag": time.Millisecond, "submit": 2 * time.Millisecond, "hop": 59 * time.Millisecond,
		"queue": 2 * time.Millisecond, "exec": 16 * time.Millisecond, "result": time.Millisecond}
	for k, v := range want {
		if ph[k] != v {
			t.Errorf("cluster %s = %v, want %v", k, ph[k], v)
		}
	}
	if total != 81*time.Millisecond || un != 0 {
		t.Errorf("cluster total %v unaccounted %v, want 81ms and 0", total, un)
	}
}

func TestSelfTimesSubtractCoveredChildren(t *testing.T) {
	d := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "job", Start: d(0), End: d(100)},
		{ID: 2, Parent: 1, Name: "service.submit", Start: d(0), End: d(10)},
		// Two overlapping store calls count once against the parent.
		{ID: 3, Parent: 1, Name: "store.load", Start: d(20), End: d(40)},
		{ID: 4, Parent: 1, Name: "store.load", Start: d(30), End: d(50)},
		// A child outside its parent is clipped for the parent's sake.
		{ID: 5, Parent: 2, Name: "service.journal", Start: d(5), End: d(15)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"job": d(100 - 10 - 30), "service": d(10-5) + d(10), "store": d(40)}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}

func TestJobSelfTimesCountAReplayedRunOnce(t *testing.T) {
	d := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "job", Start: d(0), End: d(100)},
		{ID: 2, Parent: 1, Name: "experiments.cell", Start: d(0), End: d(100)},
		{ID: 3, Parent: 2, Name: "kernels.build", Start: d(0), End: d(10)},
		// The replay re-builds and re-runs the cell outside the job.
		{ID: 4, Name: "replay", Start: d(100), End: d(185)},
		{ID: 5, Parent: 4, Name: "kernels.build", Start: d(100), End: d(110)},
		{ID: 6, Parent: 4, Name: "smt.run", Start: d(110), End: d(180)},
	}
	self, total := jobSelfTimes(spans)
	if total != d(100) {
		t.Errorf("total = %v, want the job root's 100ms", total)
	}
	want := map[string]time.Duration{"job": 0, "experiments": d(100 - 10 - 70), "kernels": d(10), "smt": d(70)}
	var sum time.Duration
	for k, v := range self {
		sum += v
		if v != want[k] {
			t.Errorf("self[%s] = %v, want %v", k, v, want[k])
		}
	}
	if sum != total {
		t.Errorf("self times sum to %v, want %v", sum, total)
	}
}

func TestClusterStreamCellsAreDistinctAndBalanced(t *testing.T) {
	universe := map[string]bool{}
	for _, sp := range clusterStreamUniverse() {
		universe[sp.Label()] = true
	}
	const n = 116
	cells, err := clusterStreamCells(rand.New(rand.NewSource(7)), n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	perWindow := map[uint64]int{}
	for _, sp := range cells {
		if !universe[sp.Label()] || seen[sp.Label()] {
			t.Fatalf("%s: outside the universe or drawn twice", sp.Label())
		}
		seen[sp.Label()] = true
		perWindow[sp.Window]++
	}
	for _, w := range clusterWindows {
		if c := perWindow[w]; c < n/len(clusterWindows)-2 || c > n/len(clusterWindows)+2 {
			t.Errorf("window %d drawn %d times of %d", w, c, n)
		}
	}
	if _, err := clusterStreamCells(rand.New(rand.NewSource(7)), len(universe)+1); err == nil {
		t.Error("drawing more cells than the universe holds must fail")
	}
}
