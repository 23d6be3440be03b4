package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; a
// root span has Parent 0. Times are offsets from the tracer's epoch.
type span struct {
	ID, Parent, Job int64
	Name            string
	Start, End      time.Duration
}

// layer is the module a span's name belongs to ("store.load" → "store").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; finish records it.
type open struct {
	t               *tracer
	id, parent, job int64
	name            string
	start           time.Time
}

// begin starts a span under parent (0 for a root) for job.
func (t *tracer) begin(name string, parent, job int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.reserve(), parent: parent, job: job, name: name, start: time.Now()}
}

// finish records the span ending now.
func (o open) finish() { o.finishAt(time.Now()) }

// finishAt records the span ending at end.
func (o open) finishAt(end time.Time) {
	if o.t == nil {
		return
	}
	o.t.record(o.id, o.name, o.parent, o.job, o.start, end)
}

// reserve allocates a span ID ahead of the span's bounds being known,
// so that spans recorded meanwhile can name it as their parent.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record adds span id (from reserve) whose bounds were observed rather
// than taken around a call: a job phase seen through its events.
func (t *tracer) record(id int64, name string, parent, job int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// replayRoot names the root span of a replay: a traced sim cell re-run
// directly on the smt layer so that Machine.Run can be timed. A replay
// belongs to no job.
const replayRoot = "replay"

// jobSelfTimes is selfTimes over the jobs' spans, plus the jobs' total
// time (their root spans). Replays are left out, except that each
// replayed run moves from the experiments layer, whose cell span holds
// the real run untimed, to smt: every layer counts the cell's work once.
func jobSelfTimes(spans []span) (self map[string]time.Duration, total time.Duration) {
	replays := map[int64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == replayRoot {
			replays[s.ID] = true
		}
	}
	var jobs []span
	var run time.Duration
	for _, s := range spans {
		switch {
		case replays[s.ID]:
		case replays[s.Parent]:
			if s.Name == "smt.run" {
				run += s.End - s.Start
			}
		default:
			jobs = append(jobs, s)
			if s.Parent == 0 {
				total += s.End - s.Start
			}
		}
	}
	self = selfTimes(jobs)
	if run > 0 {
		self["experiments"] -= run
		self["smt"] += run
	}
	return self, total
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, end time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, the JSON object flavour Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome/Perfetto trace, one lane
// (thread) per job, timestamps in microseconds.
func writeChrome(path, workload string, spans []span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Job,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]string{"source": "perfbench", "workload": workload},
	})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
