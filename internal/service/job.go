package service

import (
	"context"
	"sync"
	"time"
)

// Job states. "queued" and "running" are live; "done", "failed" and
// "cancelled" are terminal.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Event is one progress notification of a job, delivered in order over
// the SSE stream (and kept for replay, so late subscribers see the full
// history). Type "job" carries a job state transition; type "cell"
// carries one cell's terminal state.
type Event struct {
	Seq   int    `json:"seq"`
	Type  string `json:"type"` // "job" or "cell"
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Cell fields (type "cell" only).
	Cell  int    `json:"cell,omitempty"`
	Label string `json:"label,omitempty"`
}

// Job is one submitted batch of cells and its execution state.
type Job struct {
	// ID is the service-assigned identifier ("j0001", …).
	ID string
	// Specs are the submitted cells, in submission order.
	Specs []CellSpec
	// Priority orders the queue: higher runs first, and a high-priority
	// submission may preempt (checkpoint and re-queue) a running
	// lower-priority job. Immutable after submission.
	Priority int
	// Deadline, when nonzero, bounds the job: it propagates into cell
	// execution as a context deadline, and a job still queued past it
	// fails with an explicit cause instead of running late. Immutable
	// after submission.
	Deadline time.Time
	// Tenant is the identity this job's resources are accounted to.
	// The service normalizes it at admission (empty → tenant.Default);
	// the fair-share queue round-robins across distinct values.
	// Immutable after submission.
	Tenant string

	mu      sync.Mutex
	state   string
	errMsg  string
	cells   []CellResult
	cancel  context.CancelFunc // set while running
	events  []Event
	notify  chan struct{} // closed and replaced on every event append
	done    chan struct{} // closed on terminal state
	created time.Time

	// Cooperative-stop request (preemption, drain): checkpointable
	// cells observe it at their next pause point and yield.
	stopSet    bool
	stopReason string

	// charged marks that the job's cells were counted against its
	// tenant's MaxActiveCells allocation, so release happens exactly
	// once and only for charged jobs. Guarded by Service.mu.
	charged bool
}

func newJob(id string, specs []CellSpec) *Job {
	j := &Job{
		ID:      id,
		Specs:   specs,
		state:   JobQueued,
		cells:   make([]CellResult, len(specs)),
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
		created: time.Now(),
	}
	for i, sp := range specs {
		j.cells[i] = CellResult{Index: i, Label: sp.Label(), State: CellPending}
	}
	return j
}

// NewRemoteJob builds a Job tracker that is driven from outside the
// service — the cluster coordinator's mirror of work executing on
// remote workers. It carries the same states, events, SSE replay and
// result snapshots as a locally-executed job, which is what makes the
// coordinator API indistinguishable from a single daemon's. The caller
// drives it with MarkCellRunning/RecordCell/Conclude.
func NewRemoteJob(id string, specs []CellSpec) *Job {
	return newJob(id, specs)
}

// RecordCell stores one mirrored cell outcome and emits its event.
// Remote-job trackers only; the service's own jobs record cells
// internally.
func (j *Job) RecordCell(i int, res CellResult) {
	res.Label = j.Specs[i].Label()
	j.setCell(i, res)
}

// MarkCellRunning mirrors a remote cell entering execution.
func (j *Job) MarkCellRunning(i int) { j.markCellRunning(i) }

// NoteCellEvent emits a transient mirrored cell event (e.g. "resumed")
// without changing the cell's stored state.
func (j *Job) NoteCellEvent(i int, state, msg string) { j.noteCellEvent(i, state, msg) }

// Conclude drives a remote-job tracker to a state (terminal or
// "running"), emitting the job event; it reports false if the job was
// already terminal.
func (j *Job) Conclude(state, errMsg string) bool { return j.setState(state, errMsg) }

// emitLocked appends an event and wakes subscribers. Callers hold j.mu.
func (j *Job) emitLocked(ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.ID
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
}

// setState transitions the job and emits a job event; entering a
// terminal state closes Done. Returns false if the job was already
// terminal (transitions out of terminal states are ignored).
func (j *Job) setState(state, errMsg string) bool { return j.transition(state, errMsg, nil) }

// transition is setState with a commit hook: commit runs under j.mu once
// the transition is certain and before anyone can observe it (the event,
// the Done close), so what it persists is durable by the time a waiter
// wakes. A job that is already terminal runs no commit.
func (j *Job) transition(state, errMsg string, commit func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return false
	}
	if commit != nil {
		commit()
	}
	j.state = state
	j.errMsg = errMsg
	j.emitLocked(Event{Type: "job", State: state, Error: errMsg})
	if j.terminalLocked() {
		close(j.done)
	}
	return true
}

func (j *Job) terminalLocked() bool {
	switch j.state {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// requestStop asks the job's cells to yield at their next checkpoint;
// the first reason wins. Cells without pause points (streams, profile
// cells, checkpointing disabled) ignore it and run to completion.
func (j *Job) requestStop(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.stopSet {
		j.stopSet = true
		j.stopReason = reason
	}
}

// stopRequested reports a pending cooperative-stop request.
func (j *Job) stopRequested() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stopReason, j.stopSet
}

// clearStop resets the stop request (on re-admission after a requeue).
func (j *Job) clearStop() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stopSet = false
	j.stopReason = ""
}

// cellSnapshot reads one cell's current result.
func (j *Job) cellSnapshot(i int) CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cells[i]
}

// noteCellEvent emits a transient cell event ("resumed") without
// changing the cell's stored state.
func (j *Job) noteCellEvent(i int, state, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.emitLocked(Event{Type: "cell", Cell: i, Label: j.cells[i].Label, State: state, Error: msg})
}

// prepareRequeue readies a preempted job for another trip through the
// queue: preempted and still-running cells go back to pending (their
// progress lives in the checkpoint sink, keyed by cell content, so the
// re-run resumes rather than restarts), finished cells keep their
// results, and the job returns to the queued state.
func (j *Job) prepareRequeue(reason string) {
	j.mu.Lock()
	for i := range j.cells {
		switch j.cells[i].State {
		case CellPreempted, CellRunning:
			j.cells[i] = CellResult{Index: i, Label: j.Specs[i].Label(), State: CellPending}
		}
	}
	j.stopSet = false
	j.stopReason = ""
	j.mu.Unlock()
	j.setState(JobQueued, reason)
}

// markCellRunning flips a cell to running for status displays (no event:
// subscribers care about completions).
func (j *Job) markCellRunning(i int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cells[i].State == CellPending {
		j.cells[i].State = CellRunning
	}
}

// cancelPendingCells marks every not-yet-started cell cancelled (no
// events: the job-level cancellation event covers them).
func (j *Job) cancelPendingCells(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.cells {
		if j.cells[i].State == CellPending {
			j.cells[i].State = CellCancelled
			j.cells[i].Error = msg
		}
	}
}

// failPendingCells marks every non-terminal cell failed (used when a
// job cannot run at all, e.g. a journaled job that could not be
// re-admitted after a restart).
func (j *Job) failPendingCells(msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.cells {
		if j.cells[i].State == CellPending || j.cells[i].State == CellRunning {
			j.cells[i].State = CellFailed
			j.cells[i].Error = msg
		}
	}
}

// setCell records a cell's terminal result and emits a cell event.
func (j *Job) setCell(i int, res CellResult) {
	res.Index = i
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cells[i] = res
	j.emitLocked(Event{Type: "cell", Cell: i, Label: res.Label, State: res.State, Error: res.Error})
}

// State returns the job state and error message.
func (j *Job) State() (string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Results snapshots the per-cell results.
func (j *Job) Results() []CellResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]CellResult, len(j.cells))
	copy(out, j.cells)
	return out
}

// EventsSince returns the events at and after seq, plus the channel that
// will be closed when further events arrive and whether the job is
// terminal as of this snapshot.
func (j *Job) EventsSince(seq int) (evs []Event, notify <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.notify, j.terminalLocked()
}
