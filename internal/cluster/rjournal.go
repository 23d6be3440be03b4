package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"smtexplore/internal/service"
)

// The routing journal replicates the coordinator's routing state to a
// standby: ring membership, admitted jobs, group→worker assignments
// (with remote job IDs), and conclusions. The leader appends one
// CRC-framed line per delta to routing.log and periodically compacts
// into an atomically-written routing.ckpt snapshot; the standby tails
// the log and replays the deltas. On promotion the standby re-adopts
// live groups by their journaled remote IDs instead of re-forwarding
// them — the idempotency keys would make a re-forward safe, but
// adoption costs one stream resubscribe instead of a duplicate submission.
const (
	journalFile = "routing.log"
	ckptFile    = "routing.ckpt"
	linePrefix  = "rj1"

	// defaultCompactEvery bounds log growth: appends between checkpoint
	// compactions.
	defaultCompactEvery = 256
)

// Journal record kinds.
const (
	recWorker     = "worker"
	recWorkerDead = "worker-dead"
	recJob        = "job"
	recAssign     = "assign"
	recConclude   = "conclude"
)

// WorkerRec journals a worker joining (or re-addressing).
type WorkerRec struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// JobRec journals one admitted job: everything a promoted standby needs
// to rebuild the client-visible tracker and re-admit the tenant charge.
type JobRec struct {
	ID       string             `json:"id"`
	Specs    []service.CellSpec `json:"specs"`
	Tenant   string             `json:"tenant,omitempty"`
	Priority int                `json:"priority,omitempty"`
	Deadline time.Time          `json:"deadline,omitzero"`
	IdemKey  string             `json:"idem_key,omitempty"`
}

// AssignRec journals one group's current placement. A migration
// re-journals the group with its new worker and remote ID.
type AssignRec struct {
	Job      string `json:"job"`
	Group    int    `json:"group"`
	Worker   string `json:"worker"`
	RemoteID string `json:"remote_id"`
	Idxs     []int  `json:"idxs"`
}

// ConcludeRec journals a job reaching a terminal state.
type ConcludeRec struct {
	Job   string `json:"job"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// rrec is one journal line: the term fences stale leaders (replay
// ignores records from before the state's newest term), the sequence
// number dedupes replays and orders the delta stream.
type rrec struct {
	Term uint64          `json:"term"`
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// JobSnap is one job's replicated routing state.
type JobSnap struct {
	Rec    JobRec      `json:"rec"`
	Groups []AssignRec `json:"groups"`
	Done   bool        `json:"done,omitempty"`
	State  string      `json:"state,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// RoutingState is the replicated view a standby rebuilds by replaying
// checkpoint + journal: enough to adopt every live job and rebuild the
// tenant in-flight counters (derived from the live jobs themselves).
type RoutingState struct {
	Term    uint64
	Seq     uint64
	Workers map[string]string // name → addr (dead workers removed)
	Jobs    map[string]*JobSnap
	Order   []string
}

func newRoutingState() *RoutingState {
	return &RoutingState{Workers: make(map[string]string), Jobs: make(map[string]*JobSnap)}
}

// apply folds one record into the state. Stale-leader records (term
// below the newest seen) and replayed sequence numbers are skipped —
// the read-side half of term fencing.
func (st *RoutingState) apply(rec rrec) {
	if rec.Term < st.Term || rec.Seq <= st.Seq {
		return
	}
	st.Term, st.Seq = rec.Term, rec.Seq
	switch rec.Kind {
	case recWorker:
		var w WorkerRec
		if json.Unmarshal(rec.Data, &w) == nil && w.Name != "" {
			st.Workers[w.Name] = w.Addr
		}
	case recWorkerDead:
		var w WorkerRec
		if json.Unmarshal(rec.Data, &w) == nil {
			delete(st.Workers, w.Name)
		}
	case recJob:
		var j JobRec
		if json.Unmarshal(rec.Data, &j) == nil && j.ID != "" {
			if _, dup := st.Jobs[j.ID]; !dup {
				st.Jobs[j.ID] = &JobSnap{Rec: j}
				st.Order = append(st.Order, j.ID)
			}
		}
	case recAssign:
		var a AssignRec
		if json.Unmarshal(rec.Data, &a) != nil {
			return
		}
		js, ok := st.Jobs[a.Job]
		if !ok || a.Group < 0 {
			return
		}
		for len(js.Groups) <= a.Group {
			js.Groups = append(js.Groups, AssignRec{})
		}
		js.Groups[a.Group] = a
	case recConclude:
		var c ConcludeRec
		if json.Unmarshal(rec.Data, &c) != nil {
			return
		}
		if js, ok := st.Jobs[c.Job]; ok {
			js.Done, js.State, js.Error = true, c.State, c.Error
		}
	}
}

// Live returns the IDs of non-terminal jobs in admission order.
func (st *RoutingState) Live() []string {
	var out []string
	for _, id := range st.Order {
		if js := st.Jobs[id]; js != nil && !js.Done {
			out = append(out, id)
		}
	}
	return out
}

// encodeLine frames one record: "rj1 <crc32> <json>\n". The CRC makes
// torn tails (a leader killed mid-write) detectable even when the
// truncated bytes happen to parse.
func encodeLine(rec rrec) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%s %08x %s\n", linePrefix, crc32.ChecksumIEEE(payload), payload), nil
}

// decodeLine parses one frame (without the trailing newline).
func decodeLine(line []byte) (rrec, error) {
	var rec rrec
	rest, ok := bytes.CutPrefix(line, []byte(linePrefix+" "))
	if !ok || len(rest) < 10 {
		return rec, errors.New("cluster: journal line: bad frame")
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &sum); err != nil || rest[8] != ' ' {
		return rec, errors.New("cluster: journal line: bad checksum field")
	}
	payload := rest[9:]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, errors.New("cluster: journal line: checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("cluster: journal line: %w", err)
	}
	return rec, nil
}

// ckptDoc is the atomic checkpoint snapshot: the state as of Seq, with
// job order preserved. Records at or below Seq in the log are replayed
// no-ops (crash between checkpoint write and log truncation is safe).
type ckptDoc struct {
	Term uint64    `json:"term"`
	Seq  uint64    `json:"seq"`
	Jobs []JobSnap `json:"jobs"`

	WorkerList []WorkerRec `json:"workers"`
}

// LoadRoutingState rebuilds the replicated state from checkpoint +
// journal. A torn or corrupt journal tail is never an error: the
// promoting leader (repair=true) truncates the file at the last valid
// record and adopts what precedes it; a tailing standby (repair=false)
// leaves the file alone — the live leader may still be writing that
// line. consumed is the byte offset of the last valid record, where a
// tailer should resume.
func LoadRoutingState(dir string, repair bool) (st *RoutingState, consumed int64, err error) {
	st = newRoutingState()
	if data, rerr := os.ReadFile(filepath.Join(dir, ckptFile)); rerr == nil {
		var doc ckptDoc
		if json.Unmarshal(data, &doc) == nil {
			st.Term, st.Seq = doc.Term, doc.Seq
			for _, w := range doc.WorkerList {
				st.Workers[w.Name] = w.Addr
			}
			for i := range doc.Jobs {
				js := doc.Jobs[i]
				st.Jobs[js.Rec.ID] = &js
				st.Order = append(st.Order, js.Rec.ID)
			}
		}
	} else if !errors.Is(rerr, fs.ErrNotExist) {
		return nil, 0, rerr
	}

	path := filepath.Join(dir, journalFile)
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if errors.Is(rerr, fs.ErrNotExist) {
			return st, 0, nil
		}
		return nil, 0, rerr
	}
	consumed = applyLines(st, data, 0)
	if repair && consumed < int64(len(data)) {
		if terr := os.Truncate(path, consumed); terr != nil {
			return nil, 0, fmt.Errorf("cluster: truncating torn journal tail: %w", terr)
		}
	}
	return st, consumed, nil
}

// applyLines replays complete, checksum-valid records from data
// (starting at base bytes into the file) and returns the file offset
// after the last valid record. An invalid or incomplete line stops the
// replay — everything at and after it is the (possibly still being
// written) tail.
func applyLines(st *RoutingState, data []byte, base int64) int64 {
	off := int64(0)
	for {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return base + off
		}
		rec, err := decodeLine(data[off : off+int64(nl)])
		if err != nil {
			return base + off
		}
		st.apply(rec)
		off += int64(nl) + 1
	}
}

// RJournal is the leader-side journal writer. Every append re-checks
// the leadership fence first: a stale leader (lease stolen while it was
// stalled) gets ErrLeaseLost instead of a write, its onLost hook fires
// once, and the journal refuses all further appends — split-brain is
// structurally impossible past this point.
type RJournal struct {
	dir    string
	fence  func() error // nil: unfenced (single-process use, tests)
	onLost func(error)  // invoked once, on its own goroutine, when fenced off
	every  int

	mu      sync.Mutex
	f       *os.File
	st      *RoutingState
	lost    bool
	appends int
	writes  uint64
}

// OpenRJournal opens the journal for appending under term, repairing
// any torn tail left by the previous leader first. fence is consulted
// before every append (use Lease.Check); onLost is called once when the
// fence trips.
func OpenRJournal(dir string, term uint64, fence func() error, onLost func(error)) (*RJournal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, _, err := LoadRoutingState(dir, true)
	if err != nil {
		return nil, err
	}
	st.Term = term
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &RJournal{dir: dir, fence: fence, onLost: onLost, every: defaultCompactEvery, f: f, st: st}, nil
}

// State exposes the rebuilt routing state for adoption. Callers use it
// before concurrent appends begin (promotion happens single-threaded).
func (j *RJournal) State() *RoutingState { return j.st }

// Seq is the last appended (or loaded) sequence number.
func (j *RJournal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Seq
}

// Writes counts successful appends this process made.
func (j *RJournal) Writes() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writes
}

func (j *RJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

func (j *RJournal) append(kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lost {
		return ErrLeaseLost
	}
	if j.fence != nil {
		if err := j.fence(); err != nil {
			j.lost = true
			if j.onLost != nil {
				go j.onLost(err)
			}
			return err
		}
	}
	rec := rrec{Term: j.st.Term, Seq: j.st.Seq + 1, Kind: kind, Data: data}
	line, err := encodeLine(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	j.f.Sync()
	j.st.apply(rec)
	j.writes++
	j.appends++
	if j.appends >= j.every {
		j.appends = 0
		j.compactLocked()
	}
	return nil
}

// compactLocked snapshots the state (dropping concluded jobs — they
// only linger so a just-failed-over client's status poll still
// resolves) and truncates the log. A tailing standby notices the file
// shrink and reloads from the checkpoint.
func (j *RJournal) compactLocked() {
	doc := ckptDoc{Term: j.st.Term, Seq: j.st.Seq, WorkerList: []WorkerRec{}}
	for name, addr := range j.st.Workers {
		doc.WorkerList = append(doc.WorkerList, WorkerRec{Name: name, Addr: addr})
	}
	sort.Slice(doc.WorkerList, func(a, b int) bool { return doc.WorkerList[a].Name < doc.WorkerList[b].Name })
	var keep []string
	for _, id := range j.st.Order {
		js := j.st.Jobs[id]
		if js == nil {
			continue
		}
		if js.Done {
			delete(j.st.Jobs, id)
			continue
		}
		keep = append(keep, id)
		doc.Jobs = append(doc.Jobs, *js)
	}
	j.st.Order = keep
	data, err := json.Marshal(doc)
	if err != nil {
		return // impossible for these types; skip compaction, keep appending
	}
	if err := atomicWrite(j.dir, ckptFile, append(data, '\n')); err != nil {
		return // disk unhappy: the log keeps the full history, try next round
	}
	j.f.Truncate(0)
}

// Worker journals a (re-)registration; heartbeat noise is deduplicated
// against the current state.
func (j *RJournal) Worker(name, addr string) error {
	j.mu.Lock()
	known := j.st.Workers[name] == addr
	j.mu.Unlock()
	if known {
		return nil
	}
	return j.append(recWorker, WorkerRec{Name: name, Addr: addr})
}

// WorkerDead journals an eviction.
func (j *RJournal) WorkerDead(name string) error {
	j.mu.Lock()
	_, known := j.st.Workers[name]
	j.mu.Unlock()
	if !known {
		return nil
	}
	return j.append(recWorkerDead, WorkerRec{Name: name})
}

// JobStart journals an admitted job.
func (j *RJournal) JobStart(rec JobRec) error { return j.append(recJob, rec) }

// Assign journals a group placement (or re-placement after migration).
func (j *RJournal) Assign(rec AssignRec) error { return j.append(recAssign, rec) }

// Conclude journals a job's terminal state.
func (j *RJournal) Conclude(job, state, errMsg string) error {
	return j.append(recConclude, ConcludeRec{Job: job, State: state, Error: errMsg})
}

// JournalTail is the standby-side reader: poll replays newly appended
// records into the mirrored state. It never repairs the file — the
// leader owns it.
type JournalTail struct {
	dir string

	mu      sync.Mutex
	st      *RoutingState
	offset  int64
	loaded  bool
	pending int64 // unparseable/incomplete tail bytes as of the last poll
}

// NewJournalTail tails the journal in dir; state materializes on the
// first Poll.
func NewJournalTail(dir string) *JournalTail { return &JournalTail{dir: dir} }

// Poll ingests new journal bytes. Safe to call on every standby tick.
func (t *JournalTail) Poll() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.loaded {
		return t.reloadLocked()
	}
	f, err := os.Open(filepath.Join(t.dir, journalFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if t.offset > 0 {
				return t.reloadLocked() // compaction raced the poll
			}
			return nil
		}
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() < t.offset {
		return t.reloadLocked() // leader compacted: restart from the checkpoint
	}
	if info.Size() == t.offset {
		t.pending = 0
		return nil
	}
	data := make([]byte, info.Size()-t.offset)
	if _, err := f.ReadAt(data, t.offset); err != nil && err != io.EOF {
		return err
	}
	t.offset = applyLines(t.st, data, t.offset)
	t.pending = info.Size() - t.offset
	return nil
}

func (t *JournalTail) reloadLocked() error {
	st, consumed, err := LoadRoutingState(t.dir, false)
	if err != nil {
		return err
	}
	t.st, t.offset, t.loaded, t.pending = st, consumed, true, 0
	return nil
}

// State returns the mirrored routing state (nil before the first Poll).
func (t *JournalTail) State() *RoutingState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// Seq is the last applied sequence number.
func (t *JournalTail) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.st == nil {
		return 0
	}
	return t.st.Seq
}

// Lag reports journal bytes the standby has seen but not applied — a
// healthy tail holds this at 0; a torn leader-side write parks the
// unfinished line here until the line completes or a promotion repairs
// it.
func (t *JournalTail) Lag() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}
