package smt

import (
	"fmt"

	"smtexplore/internal/isa"
	"smtexplore/internal/mem"
	"smtexplore/internal/perfmon"
)

// This file implements whole-machine checkpointing. Snapshot captures
// every piece of mutable simulation state at a cycle boundary (Step is
// the natural pause point: between Steps no stage holds hidden
// temporaries), and Restore rebuilds it onto a freshly constructed
// machine carrying the same configuration and programs. Because
// programs are pure generators, the instruction streams themselves are
// not serialized — only the number of instructions already pulled —
// and Restore fast-forwards a fresh stream to the same position. A
// restored machine is therefore indistinguishable from the original:
// stepping both produces identical cycles, counters and memory-system
// state, which is what lets a resumed experiment cell report metrics
// byte-identical to an uninterrupted run.

// SnapRef is the serializable image of a generation-checked µop
// reference.
type SnapRef struct {
	Gen uint32 `json:"g,omitempty"`
	Idx int16  `json:"i,omitempty"`
	Tid int8   `json:"t,omitempty"`
}

func snapRef(r uopRef) SnapRef { return SnapRef{Gen: r.gen, Idx: r.idx, Tid: r.tid} }
func (s SnapRef) ref() uopRef  { return uopRef{gen: s.Gen, idx: s.Idx, tid: s.Tid} }

// SnapUop is the serializable image of one ROB slot. Free slots are
// captured too: their generation counters are live state (stale-ref
// detection depends on them).
type SnapUop struct {
	Gen       uint32    `json:"g,omitempty"`
	In        isa.Instr `json:"in"`
	Seq       uint64    `json:"seq,omitempty"`
	Issued    bool      `json:"is,omitempty"`
	Cancelled bool      `json:"ca,omitempty"`
	DoneAt    uint64    `json:"da,omitempty"`
	AllocAt   uint64    `json:"aa,omitempty"`
	IssueAt   uint64    `json:"ia,omitempty"`
	Port      isa.Port  `json:"po,omitempty"`
	Unit      isa.Unit  `json:"un,omitempty"`
	Dep1      SnapRef   `json:"d1,omitempty"`
	Dep2      SnapRef   `json:"d2,omitempty"`
	DepW      SnapRef   `json:"dw,omitempty"`
	RetryAt   uint64    `json:"ra,omitempty"`
	ReadyAt   uint64    `json:"rd,omitempty"`
	Spin      bool      `json:"sp,omitempty"`
}

func snapUop(u *uop) SnapUop {
	return SnapUop{
		Gen: u.gen, In: u.in, Seq: u.seq,
		Issued: u.issued, Cancelled: u.cancelled,
		DoneAt: u.doneAt, AllocAt: u.allocAt, IssueAt: u.issueAt,
		Port: u.port, Unit: u.unit,
		Dep1: snapRef(u.dep1), Dep2: snapRef(u.dep2), DepW: snapRef(u.depW),
		RetryAt: u.retryAt, ReadyAt: u.readyAt, Spin: u.spin,
	}
}

func (s SnapUop) uop() uop {
	return uop{
		gen: s.Gen, in: s.In, seq: s.Seq,
		issued: s.Issued, cancelled: s.Cancelled,
		doneAt: s.DoneAt, allocAt: s.AllocAt, issueAt: s.IssueAt,
		port: s.Port, unit: s.Unit,
		dep1: s.Dep1.ref(), dep2: s.Dep2.ref(), depW: s.DepW.ref(),
		retryAt: s.RetryAt, readyAt: s.ReadyAt, spin: s.Spin,
	}
}

// SnapLoadRec is one in-flight load record (machine-clear detection).
type SnapLoadRec struct {
	Ref  SnapRef `json:"r,omitempty"`
	Line uint64  `json:"l,omitempty"`
}

// ThreadSnapshot is the full state of one logical processor.
type ThreadSnapshot struct {
	Started bool `json:"started,omitempty"`
	// StreamGenerated is how many instructions the front end has pulled
	// from the program; Restore replays that many from a fresh stream.
	StreamGenerated uint64 `json:"stream_generated,omitempty"`
	StreamDone      bool   `json:"stream_done,omitempty"`

	Pending      isa.Instr `json:"pending"`
	PendingValid bool      `json:"pending_valid,omitempty"`

	ROB      []SnapUop `json:"rob"`
	ROBHead  int       `json:"rob_head,omitempty"`
	ROBCount int       `json:"rob_count,omitempty"`

	LDQ        int      `json:"ldq,omitempty"`
	STQ        int      `json:"stq,omitempty"`
	StqFree    []uint64 `json:"stq_free,omitempty"`
	SchedCount int      `json:"sched_count,omitempty"`

	RegPrev [isa.NumRegs]SnapRef `json:"reg_prev"`

	InflightLoads [8]SnapLoadRec `json:"inflight_loads"`
	LoadRecPos    int            `json:"load_rec_pos,omitempty"`

	AllocStallUntil uint64 `json:"alloc_stall_until,omitempty"`

	Spinning bool   `json:"spinning,omitempty"`
	Halting  bool   `json:"halting,omitempty"`
	Halted   bool   `json:"halted,omitempty"`
	WakeAt   uint64 `json:"wake_at,omitempty"`

	Done bool `json:"done,omitempty"`
}

// Snapshot is the complete mutable state of a paused machine. It is a
// plain data record (JSON-serializable end to end) so checkpoint codecs
// can persist it without reaching into simulator internals. Observers
// (OnRetire/OnCycle) are deliberately excluded: they are process-local
// instruments, reattached by the harness that owns the machine.
type Snapshot struct {
	// Config is the geometry the snapshot was taken under; Restore
	// refuses a machine configured differently.
	Config Config `json:"config"`

	Cycle uint64 `json:"cycle"`
	Seq   uint64 `json:"seq"`

	Threads [NumContexts]ThreadSnapshot `json:"threads"`

	Cells    map[isa.Cell]int64  `json:"cells,omitempty"`
	CellWait map[isa.Cell]uint64 `json:"cell_wait,omitempty"`

	Sched        []SnapRef                                      `json:"sched,omitempty"`
	UnitNextFree [isa.NumUnits]uint64                           `json:"unit_next_free"`
	LastRetire   uint64                                         `json:"last_retire"`
	Counters     [perfmon.NumEvents][perfmon.NumContexts]uint64 `json:"counters"`
	Hier         mem.HierarchyState                             `json:"hier"`
}

// Snapshot captures the machine's full mutable state at the current
// cycle boundary. Call it only between Steps (Run/RunPausable pause
// points qualify); the machine is left untouched and can keep running.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:       m.cfg,
		Cycle:        m.cycle,
		Seq:          m.seq,
		UnitNextFree: m.unitNextFree,
		LastRetire:   m.lastRetireCycle,
		Counters:     m.ctr.Snapshot().Raw(),
		Hier:         m.hier.State(),
	}
	if len(m.cells) > 0 {
		s.Cells = make(map[isa.Cell]int64, len(m.cells))
		for k, v := range m.cells {
			s.Cells[k] = v
		}
	}
	if len(m.cellWait) > 0 {
		s.CellWait = make(map[isa.Cell]uint64, len(m.cellWait))
		for k, v := range m.cellWait {
			s.CellWait[k] = v
		}
	}
	if n := m.schedLen(); n > 0 {
		s.Sched = make([]SnapRef, 0, n)
		m.schedEach(func(e schedEntry) {
			s.Sched = append(s.Sched, snapRef(e.ref))
		})
	}
	for i := range m.threads {
		t := &m.threads[i]
		ts := &s.Threads[i]
		ts.Started = t.started
		if t.stream != nil {
			ts.StreamGenerated = t.stream.Generated
			ts.StreamDone = t.stream.Done()
		}
		ts.Pending = *t.pending
		ts.PendingValid = t.pendingValid
		ts.ROB = make([]SnapUop, len(t.rob.buf))
		for j := range t.rob.buf {
			ts.ROB[j] = snapUop(&t.rob.buf[j])
		}
		ts.ROBHead = t.rob.head
		ts.ROBCount = t.rob.count
		ts.LDQ = t.ldq
		ts.STQ = t.stq
		if len(t.stqFree) > 0 {
			ts.StqFree = append([]uint64(nil), t.stqFree...)
		}
		ts.SchedCount = t.schedCount
		for r := range t.regPrev {
			ts.RegPrev[r] = snapRef(t.regPrev[r])
		}
		for j, lr := range t.inflightLoads {
			ts.InflightLoads[j] = SnapLoadRec{Ref: snapRef(lr.ref), Line: lr.line}
		}
		ts.LoadRecPos = t.loadRecPos
		ts.AllocStallUntil = t.allocStallUntil
		ts.Spinning = t.spinning
		ts.Halting = t.halting
		ts.Halted = t.halted
		ts.WakeAt = t.wakeAt
		ts.Done = t.done
	}
	return s
}

// Restore overwrites the machine's mutable state with a snapshot taken
// from an identically prepared machine: same Config, same programs
// loaded on the same contexts, not yet stepped past the snapshot
// point. Each started context's fresh instruction stream is
// fast-forwarded by replaying the instructions the snapshotted front
// end had already consumed — programs are pure generators, so the
// replay yields the identical sequence. Installed observers are kept.
// On error the machine must be discarded: state may be partially
// overwritten.
func (m *Machine) Restore(s *Snapshot) error {
	if m.cfg != s.Config {
		return fmt.Errorf("smt: restore config mismatch: machine %+v, snapshot %+v", m.cfg, s.Config)
	}
	for i := range m.threads {
		t := &m.threads[i]
		ts := &s.Threads[i]
		if t.started != ts.Started {
			return fmt.Errorf("smt: restore context %d: machine started=%v, snapshot started=%v", i, t.started, ts.Started)
		}
		if len(ts.ROB) != len(t.rob.buf) {
			return fmt.Errorf("smt: restore context %d: snapshot ROB has %d slots, machine has %d", i, len(ts.ROB), len(t.rob.buf))
		}
		if !ts.Started {
			continue
		}
		if t.stream.Generated != 0 {
			return fmt.Errorf("smt: restore context %d: stream already consumed %d instructions (machine not fresh)", i, t.stream.Generated)
		}
		if n := t.stream.Skip(ts.StreamGenerated); n != ts.StreamGenerated {
			return fmt.Errorf("smt: restore context %d: program ended after %d instructions, snapshot consumed %d (program mismatch)", i, n, ts.StreamGenerated)
		}
		if ts.StreamDone {
			t.stream.Close()
		}
	}
	for i := range m.threads {
		t := &m.threads[i]
		ts := &s.Threads[i]
		t.restoredPending = ts.Pending
		t.pending = &t.restoredPending
		t.pendingValid = ts.PendingValid
		for j := range t.rob.buf {
			t.rob.buf[j] = ts.ROB[j].uop()
		}
		t.rob.head = ts.ROBHead
		t.rob.count = ts.ROBCount
		t.ldq = ts.LDQ
		t.stq = ts.STQ
		t.stqFree = append(t.stqFree[:0], ts.StqFree...)
		t.stqNext = 0 // a lower bound; the next housekeep re-derives it
		t.schedCount = ts.SchedCount
		for r := range t.regPrev {
			t.regPrev[r] = ts.RegPrev[r].ref()
		}
		for j, lr := range ts.InflightLoads {
			t.inflightLoads[j] = loadRec{ref: lr.Ref.ref(), line: lr.Line}
		}
		t.loadRecPos = ts.LoadRecPos
		t.allocStallUntil = ts.AllocStallUntil
		t.spinning = ts.Spinning
		t.halting = ts.Halting
		t.halted = ts.Halted
		t.wakeAt = ts.WakeAt
		t.done = ts.Done
	}
	m.limStale = true
	m.cycle = s.Cycle
	m.seq = s.Seq
	m.cells = make(map[isa.Cell]int64, len(s.Cells))
	for k, v := range s.Cells {
		m.cells[k] = v
	}
	m.cellWait = make(map[isa.Cell]uint64, len(s.CellWait))
	for k, v := range s.CellWait {
		m.cellWait[k] = v
	}
	m.schedReset()
	for _, r := range s.Sched {
		ref := r.ref()
		u := m.resolve(ref)
		var class uint8
		if u != nil {
			class = opClass[u.in.Op]
		}
		m.schedInsert(u, ref, class, 0)
	}
	m.unitNextFree = s.UnitNextFree
	m.lastRetireCycle = s.LastRetire
	m.ctr.Restore(perfmon.FromRaw(s.Counters))
	if err := m.hier.SetState(s.Hier); err != nil {
		return err
	}
	return nil
}

// runBound is the first cycle RunPausable's loop must re-examine — the
// maxCycles edge, the next pause point or the deadlock-watchdog trigger
// — so a skip clamped to it lands every loop condition on the exact
// cycle it would fire under per-cycle stepping.
func (m *Machine) runBound(start, maxCycles, nextPause uint64) uint64 {
	b := m.lastRetireCycle + deadlockWindow + 1
	if maxCycles != 0 && start+maxCycles < b {
		b = start + maxCycles
	}
	if nextPause != 0 && nextPause < b {
		b = nextPause
	}
	return b
}

// RunPausable is Run with cooperative pause points: every pauseEvery
// cycles (0: never) the loop stops at a cycle boundary — where Snapshot
// is legal — and calls pause. A true return abandons the run with
// Paused set; the machine stays valid and can be snapshotted, resumed
// or stepped further. pause may itself call Snapshot, which is the
// checkpoint path.
func (m *Machine) RunPausable(maxCycles, pauseEvery uint64, pause func() bool) (RunResult, error) {
	start := m.cycle
	m.lastRetireCycle = m.cycle
	nextPause := uint64(0)
	if pauseEvery != 0 && pause != nil {
		nextPause = m.cycle + pauseEvery
	}
	m.periodicArm()
	for !m.Done() {
		if maxCycles != 0 && m.cycle-start >= maxCycles {
			return RunResult{Cycles: m.cycle - start}, nil
		}
		if nextPause != 0 && m.cycle >= nextPause {
			nextPause = m.cycle + pauseEvery
			// The hook may change the machine: a period under proof
			// must restart.
			m.per.candOK = false
			if pause() {
				return RunResult{Cycles: m.cycle - start, Paused: true}, nil
			}
		}
		if m.cycle-m.lastRetireCycle > deadlockWindow {
			return RunResult{Cycles: m.cycle - start}, fmt.Errorf("%w at cycle %d", ErrDeadlock, m.cycle)
		}
		if m.periodicDue() && m.periodicSample(m.runBound(start, maxCycles, nextPause)) {
			// Whole periods of a proven steady state (periodic.go).
			continue
		}
		if m.ff && m.armed&armCycle == 0 && m.cycle >= m.ffNextTry {
			// Event-driven skip over quiet cycles (fastforward.go).
			if m.ffSkip(m.runBound(start, maxCycles, nextPause)) {
				continue
			}
			// A busy machine stays busy: throttle the next attempt so a
			// saturated pipeline doesn't pay the quiescence probe every
			// cycle. Worst case a quiet span starts up to 15 cycles late
			// and is stepped exactly by the slow path — never skipped.
			m.ffNextTry = m.cycle + 16
		}
		m.Step()
	}
	return RunResult{Cycles: m.cycle - start, Completed: true}, nil
}
