package smt

import (
	"errors"
	"fmt"

	"smtexplore/internal/isa"
	"smtexplore/internal/mem"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/trace"
)

// NumContexts is the number of logical processors per physical package.
const NumContexts = 2

// spinReg is the architectural register used by injected spin-loop loads;
// workload generators must not use it (syncprim reserves it).
var spinReg = isa.R(31)

// RetireInfo describes one retired µop, delivered to the OnRetire observer
// (the substrate of the Pin-style instruction-mix profiler).
type RetireInfo struct {
	Tid   int
	Instr isa.Instr
	Unit  isa.Unit
	Spin  bool // injected by spin-wait expansion
	Cycle uint64

	// Pipeline timestamps (cycle of allocation, issue and completion),
	// the substrate of the pipeline tracer.
	AllocCycle    uint64
	IssueCycle    uint64
	CompleteCycle uint64
}

// thread is the per-logical-processor state.
type thread struct {
	id      int
	stream  *trace.Stream
	started bool

	// pending is the instruction fetched last, inside the stream's
	// buffer (or restored, pointing at restoredPending); pendingValid
	// reports that it has not been consumed yet. Allocation copies it
	// into the ROB once, straight from the stream.
	pending         *isa.Instr
	pendingValid    bool
	restoredPending isa.Instr

	rob rob
	ldq int
	stq int
	// stqFree holds completion times of stores draining to cache after
	// retirement; the store-buffer entry is released only then.
	// stqNext is a lower bound on the earliest of them, so housekeep
	// leaves the list alone until a drain can have completed.
	stqFree []uint64
	stqNext uint64
	// schedCount is this context's occupancy of the scheduler window.
	schedCount int

	regPrev [isa.NumRegs]uopRef

	// inflightLoads is a small ring of recently issued loads, scanned at
	// sibling store retirement for memory-order machine clears.
	inflightLoads [8]loadRec
	loadRecPos    int

	allocStallUntil uint64

	spinning bool
	halting  bool
	halted   bool
	wakeAt   uint64 // nonzero → wake in progress

	done bool
}

// loadRec is one in-flight load record for machine-clear detection.
type loadRec struct {
	ref  uopRef
	line uint64
}

// runnable reports whether the context holds partitioned resources (it is
// started, unfinished and not halted).
func (t *thread) runnable() bool {
	return t.started && !t.done && !t.halted
}

// drained reports whether the context's pipeline holds no in-flight state.
func (t *thread) drained() bool {
	return t.rob.count == 0 && t.stq == 0 && len(t.stqFree) == 0 && t.ldq == 0
}

// Machine is one simulated physical processor package with two logical
// processors.
type Machine struct {
	cfg  Config
	hier *mem.Hierarchy
	ctr  perfmon.Counters

	threads [NumContexts]thread
	cells   map[isa.Cell]int64

	cycle uint64
	seq   uint64

	// The scheduler window is a power-of-two ring of generation-checked
	// µop references in allocation-age order, indexed by the absolute
	// counters schedHead/schedTail (slot = counter & mask). Occupancy is
	// bit-packed: schedLive holds one bit per slot. The select visits
	// only the entries that can act, found through two more bitmaps over
	// the same slots, each a subset of schedLive:
	//   - schedDue: entries to examine this cycle — freshly allocated
	//     ones whose wake bound has passed, wheel entries whose wake
	//     cycle has come, and stale ones to reap;
	//   - schedReady: entries that passed uopReady and wait only for a
	//     port, one bitmap per port class (class-major, len(schedLive)
	//     words each), with their union in schedReadyAll.
	// Every other live entry sleeps: until its wake cycle in the wheel,
	// or, when every open producer will prod it on dispatch, in no set
	// at all. Wake bounds and set membership are scan-private
	// bookkeeping (never serialized): a too-early examination only costs
	// a harmless re-check, never a timing change.
	schedRing     []schedEntry
	schedScratch  []schedEntry
	schedLive     []uint64
	schedDue      []uint64
	schedReady    []uint64
	schedReadyAll []uint64
	schedHead     uint64
	schedTail     uint64

	// The wake wheel files timed sleepers by wake cycle: bucket
	// c%wheelSlots holds the slots (len(schedLive) words per bucket,
	// bucket-major) due at cycle c, for c in [wheelAt, wheelAt+wheelSlots).
	// wheelOcc marks the buckets that may hold a bit. issue drains the
	// buckets up to the current cycle into schedDue first thing, so a
	// span skipped by ffSkip is caught up in one pass.
	wheel    []uint64
	wheelOcc uint64
	wheelAt  uint64

	unitNextFree [isa.NumUnits]uint64

	// cellWait attributes wait cycles (spinning, draining-to-halt or
	// halted) to the synchronisation cell being awaited — the
	// measurement behind the paper's selective-halting methodology
	// ("we measured the times that precomputation threads spend on
	// every barrier").
	cellWait map[isa.Cell]uint64

	onRetire func(RetireInfo)
	onCycle  func()
	// armed packs the observer arming state into one plain byte so the
	// disarmed hot path is a single predictable branch on an immediate
	// test (the faultinject.Hit pattern) instead of func-value compares
	// against nil on every cycle and every retirement.
	armed uint8

	// ff enables the event-driven fast-forward in RunPausable (see
	// fastforward.go). On by default; SetFastForward(false) forces the
	// machine to step every cycle.
	ff bool
	// ffNextTry suppresses re-attempting a failed fast-forward until the
	// given cycle: a machine that could make progress this cycle usually
	// still can next cycle, and skipping the attempt is always correct —
	// the slow path is exact. Not serialized; purely a scan throttle.
	ffNextTry uint64

	// Partition limits for the current cycle, re-derived after housekeep
	// (the only stage that changes runnable/halted state) only when
	// limStale marks a change of some context's runnable state, so
	// neither the allocator's occupancy probes nor the cycle loop
	// re-derive the dual-thread mode otherwise.
	limROB, limSched, limLDQ, limSTQ int
	limStale                         bool

	// lastRetireCycle backs the deadlock watchdog.
	lastRetireCycle uint64

	// per is the exact periodic skip's detector (periodic.go); like
	// ffNextTry it is never serialized. Last, so its kilobyte of
	// sampling state stays clear of the fields the cycle loop touches.
	per periodic
}

// Observer arming bits in Machine.armed.
const (
	armRetire uint8 = 1 << iota
	armCycle
)

// New builds a machine; it panics on invalid configuration (construction-
// time programming error).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:      cfg,
		hier:     mem.NewHierarchy(cfg.Mem),
		cells:    make(map[isa.Cell]int64),
		cellWait: make(map[isa.Cell]uint64),
		ff:       true,
	}
	// Ring capacity: up to 2×SchedWindow entries can be live (the
	// NoStaticPartition ablation un-halves the per-context limit), and
	// issued/flushed entries leave age-ordered holes until the head
	// passes them, so double again for slack — compaction then triggers
	// only when at least half the span is holes. The floor of 128 keeps
	// the compaction threshold (capacity minus one bitmap word; see
	// schedInsert) at or above the live bound for small windows.
	schedCap := 128
	for schedCap < 4*cfg.SchedWindow {
		schedCap <<= 1
	}
	nw := schedCap / 64
	m.schedRing = make([]schedEntry, schedCap)
	m.schedScratch = make([]schedEntry, schedCap)
	m.schedLive = make([]uint64, nw)
	m.schedDue = make([]uint64, nw)
	m.schedReady = make([]uint64, len(classPorts)*nw)
	m.schedReadyAll = make([]uint64, nw)
	m.wheel = make([]uint64, wheelSlots*nw)
	m.limStale = true
	for i := range m.threads {
		t := &m.threads[i]
		*t = thread{id: i, rob: newROB(cfg.ROB)}
		t.pending = &t.restoredPending
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Hierarchy exposes the shared memory system.
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// Counters exposes the performance-monitoring bank.
func (m *Machine) Counters() *perfmon.Counters { return &m.ctr }

// Cycle returns the current cycle number.
func (m *Machine) Cycle() uint64 { return m.cycle }

// LoadProgram binds program p to logical processor tid. It must be called
// before the first Step for that context.
func (m *Machine) LoadProgram(tid int, p trace.Program) {
	m.LoadStream(tid, trace.NewStream(p))
}

// LoadStream binds an already-constructed instruction stream to logical
// processor tid — the entry point for slice-backed loop streams
// (trace.LoopBody), which bypass the generator goroutine entirely.
func (m *Machine) LoadStream(tid int, s *trace.Stream) {
	t := m.thread(tid)
	if t.started {
		panic(fmt.Sprintf("smt: context %d already has a program", tid))
	}
	t.stream = s
	t.started = true
	m.limStale = true
}

func (m *Machine) thread(tid int) *thread {
	if tid < 0 || tid >= NumContexts {
		panic(fmt.Sprintf("smt: invalid logical processor %d", tid))
	}
	return &m.threads[tid]
}

// SetCell initialises a synchronisation cell value.
func (m *Machine) SetCell(c isa.Cell, v int64) { m.cells[c] = v }

// CellValue reads a synchronisation cell.
func (m *Machine) CellValue(c isa.Cell) int64 { return m.cells[c] }

// OnRetire installs the retirement observer (profiling hook). A nil fn
// removes it.
func (m *Machine) OnRetire(fn func(RetireInfo)) {
	m.onRetire = fn
	if fn != nil {
		m.armed |= armRetire
	} else {
		m.armed &^= armRetire
	}
}

// RetireObserver returns the installed retirement observer (nil when
// absent), so external instruments can chain to it instead of
// displacing it.
func (m *Machine) RetireObserver() func(RetireInfo) { return m.onRetire }

// CycleObserver returns the installed per-cycle observer (nil when
// absent); see RetireObserver.
func (m *Machine) CycleObserver() func() { return m.onCycle }

// OnCycle installs the per-cycle observer, invoked at the end of every
// Step after the cycle's counters are booked but before the cycle number
// advances — OccState() read from the hook is consistent with the
// perfmon accounting of that cycle. A nil fn removes it. The hook is the
// substrate of the occupancy sampler (internal/obs); it costs one
// armed-bit test per cycle when absent. An armed cycle observer also
// disables the event-driven fast-forward — the hook's contract is one
// call per simulated cycle.
func (m *Machine) OnCycle(fn func()) {
	m.onCycle = fn
	if fn != nil {
		m.armed |= armCycle
	} else {
		m.armed &^= armCycle
	}
}

// SetFastForward enables or disables the event-driven cycle skip in
// RunPausable. The skip is timing- and counter-exact (see fastforward.go),
// so the toggle exists for differential testing and benchmarking, not
// correctness.
func (m *Machine) SetFastForward(on bool) { m.ff = on }

// FastForward reports whether the event-driven cycle skip is enabled.
func (m *Machine) FastForward() bool { return m.ff }

// OccState is a read-only per-cycle view of the shared and partitioned
// pipeline resources — the dynamic counterpart of the paper's static
// resource-partitioning table (§2).
type OccState struct {
	// Cycle is the cycle this state describes.
	Cycle uint64
	// Sched is the per-context occupancy of the shared scheduler window.
	Sched [NumContexts]int
	// ROB, LoadQ and StoreQ are the per-context occupancies of the
	// statically partitioned buffers.
	ROB    [NumContexts]int
	LoadQ  [NumContexts]int
	StoreQ [NumContexts]int
	// Active and Halted mirror the perfmon Cycles/HaltedCycles
	// accounting: a started, unfinished context is in exactly one of the
	// two states each cycle.
	Active [NumContexts]bool
	Halted [NumContexts]bool
	// InflightFills is the number of busy MSHRs (outstanding L2 misses).
	InflightFills int
}

// OccState snapshots the current occupancy of every modelled resource.
func (m *Machine) OccState() OccState {
	s := OccState{Cycle: m.cycle, InflightFills: m.hier.InflightFills(m.cycle)}
	for i := range m.threads {
		t := &m.threads[i]
		s.Sched[i] = t.schedCount
		s.ROB[i] = t.rob.count
		s.LoadQ[i] = t.ldq
		s.StoreQ[i] = t.stq
		live := t.started && !t.done
		s.Active[i] = live && !t.halted
		s.Halted[i] = live && t.halted
	}
	return s
}

// Close releases the instruction-stream generators of every loaded
// program. Streams of programs that retire fully are closed by the
// machine itself; Close covers the abandonment paths — a bounded
// measurement window expiring or a deadlocked run — where the underlying
// iter.Pull goroutines would otherwise leak. Safe to call multiple
// times; the machine must not be stepped afterwards.
func (m *Machine) Close() {
	for i := range m.threads {
		t := &m.threads[i]
		if t.stream != nil {
			t.stream.Close()
		}
	}
}

// WaitProfile returns the cycles spent waiting (spin or halt) per
// synchronisation cell — the per-barrier wait-time measurement the paper
// uses to decide where to embed the halt machinery.
func (m *Machine) WaitProfile() map[isa.Cell]uint64 {
	out := make(map[isa.Cell]uint64, len(m.cellWait))
	for c, n := range m.cellWait {
		out[c] = n
	}
	return out
}

// Done reports whether every loaded program has fully retired.
func (m *Machine) Done() bool {
	any := false
	for i := range m.threads {
		t := &m.threads[i]
		if t.started {
			any = true
			if !t.done {
				return false
			}
		}
	}
	return any
}

// bothActive reports whether both contexts currently hold partitioned
// resources, i.e. the machine is in dual-thread (MT) mode.
func (m *Machine) bothActive() bool {
	return m.threads[0].runnable() && m.threads[1].runnable()
}

// limit returns the per-context occupancy bound for a buffer of the given
// total size under the current partitioning mode.
func (m *Machine) limit(total int) int {
	if m.cfg.NoStaticPartition {
		return total
	}
	if m.bothActive() {
		return total / 2
	}
	return total
}

// refreshLimits re-derives the partition limits if a context's runnable
// state changed since they were last derived.
func (m *Machine) refreshLimits() {
	if !m.limStale {
		return
	}
	m.limStale = false
	m.limROB = m.limit(m.cfg.ROB)
	m.limSched = m.limit(m.cfg.SchedWindow)
	m.limLDQ = m.limit(m.cfg.LoadQ)
	m.limSTQ = m.limit(m.cfg.StoreQ)
}

// cellHolds evaluates a wait predicate against the current cell state.
func (m *Machine) cellHolds(in *isa.Instr) bool {
	return in.Cmp.Holds(m.cells[in.Cell], in.Val)
}

// Step advances the machine one cycle: housekeeping, retire, issue,
// allocate — reverse pipeline order so results flow between stages with a
// one-cycle delay.
func (m *Machine) Step() {
	m.housekeep()
	m.refreshLimits()
	m.retire()
	m.issue()
	m.allocate()
	m.account()
	if m.armed&armCycle != 0 {
		m.onCycle()
	}
	m.cycle++
}

// housekeep releases timed store-buffer entries and drives the halt/wake
// state machine.
func (m *Machine) housekeep() {
	now := m.cycle
	for i := range m.threads {
		t := &m.threads[i]

		// Release drained store-buffer entries.
		if len(t.stqFree) != 0 && t.stqNext <= now {
			kept := t.stqFree[:0]
			next := ^uint64(0)
			for _, at := range t.stqFree {
				if at <= now {
					t.stq--
				} else {
					kept = append(kept, at)
					next = min(next, at)
				}
			}
			t.stqFree, t.stqNext = kept, next
		}

		// A halting context becomes halted once its pipeline drains;
		// its partitioned resources recombine for the sibling.
		if t.halting && t.drained() {
			t.halting = false
			t.halted = true
			m.limStale = true
		}

		// A halted context wakes when its awaited condition holds: the
		// sibling's flag store stands in for the IPI. Wake-up costs
		// HaltWakeLatency, and re-partitioning freezes the sibling's
		// allocator briefly.
		if t.halted {
			if t.wakeAt == 0 && t.pendingValid && m.cellHolds(t.pending) {
				t.wakeAt = now + uint64(m.cfg.HaltWakeLatency)
			}
			if t.wakeAt != 0 && now >= t.wakeAt {
				t.halted = false
				m.limStale = true
				t.wakeAt = 0
				t.pendingValid = false // consume the HaltWait
				m.ctr.Inc(perfmon.HaltTransitions, t.id)
				sib := &m.threads[1-t.id]
				if until := now + uint64(m.cfg.PartitionFreeze); sib.runnable() && until > sib.allocStallUntil {
					sib.allocStallUntil = until
				}
			}
		}

		// Completion: stream exhausted, nothing pending, pipeline dry.
		if t.started && !t.done && !t.pendingValid && t.stream.Done() && t.drained() {
			t.done = true
			m.limStale = true
			t.stream.Close()
		}
	}
}

// account books per-cycle counters.
func (m *Machine) account() {
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started || t.done {
			continue
		}
		if t.halted {
			m.ctr.Inc(perfmon.HaltedCycles, t.id)
		} else {
			m.ctr.Inc(perfmon.Cycles, t.id)
		}
		if t.spinning || t.halting || t.halted {
			m.ctr.Inc(perfmon.BarrierWaitCycles, t.id)
			if t.pendingValid && t.pending.Cell != isa.NoCell {
				m.cellWait[t.pending.Cell]++
			}
		}
	}
}

// RunResult summarises a Run.
type RunResult struct {
	// Cycles is the total cycles stepped by this Run call.
	Cycles uint64
	// Completed reports whether every program retired fully (false when
	// the cycle budget expired first — the normal case for Forever
	// streams).
	Completed bool
	// Paused reports that a RunPausable pause hook stopped the run at a
	// cycle boundary; the machine is still valid and resumable.
	Paused bool
}

// ErrDeadlock is returned by Run when no µop retires for a long stretch
// while no context is legitimately halted-waiting: a lost-wakeup or
// never-satisfied spin in the workload.
var ErrDeadlock = errors.New("smt: no forward progress (spin or halt wait never satisfied)")

// deadlockWindow is the no-retirement span that triggers ErrDeadlock.
const deadlockWindow = 4_000_000

// Run steps the machine until every program completes or maxCycles elapse
// (maxCycles 0 means no bound). It returns ErrDeadlock if the workload
// stops making progress.
func (m *Machine) Run(maxCycles uint64) (RunResult, error) {
	return m.RunPausable(maxCycles, 0, nil)
}

// resolve maps a uopRef to its µop, or nil when the reference is stale
// (retired/flushed slot since recycled) or empty.
func (m *Machine) resolve(r uopRef) *uop {
	if r.gen == 0 {
		return nil
	}
	u := m.threads[r.tid].rob.at(r.idx)
	if u.gen != r.gen {
		return nil
	}
	return u
}

// depDone reports whether the dependence r is satisfied at cycle now.
func (m *Machine) depDone(r uopRef, now uint64) bool {
	u := m.resolve(r)
	if u == nil || u.cancelled {
		return true
	}
	return u.issued && u.doneAt <= now
}
