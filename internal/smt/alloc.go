package smt

import (
	"fmt"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
)

// allocate is the merged fetch/decode/allocate front end. Each cycle it
// serves one context (alternating, falling back to the sibling when the
// preferred context cannot allocate), feeding up to AllocWidth µops into
// the reorder buffer and scheduler window, gated by the statically
// partitioned buffer limits. The declarative synchronisation operations
// are interpreted here: SpinWait expands into spin-loop µop traffic until
// its condition holds (then pays the memory-order-violation flush),
// HaltWait drains and halts the context, Pause de-pipelines allocation.
func (m *Machine) allocate() {
	now := m.cycle
	pref := int(m.cycle % NumContexts)
	t := m.allocPick(pref)
	if t == nil {
		return
	}

	budget := m.cfg.AllocWidth
	for budget > 0 {
		if t.allocStallUntil > now {
			break
		}
		in, ok := m.peekInstr(t)
		if !ok {
			if t.runnable() && !t.drained() {
				// Pipeline still draining; nothing to fetch.
				m.ctr.Inc(perfmon.FetchStarvedCycles, t.id)
			}
			break
		}

		switch in.Op {
		case isa.SpinWait:
			if m.cellHolds(in) {
				m.finishSpin(t, now)
				continue
			}
			t.spinning = true
			n, ok := m.injectSpinIteration(t, in, now, budget)
			budget -= n
			if !ok {
				return
			}
			continue

		case isa.HaltWait:
			if m.cellHolds(in) {
				// Condition already true: no halt happens, no penalty.
				t.pendingValid = false
				continue
			}
			t.halting = true
			return

		case isa.Pause:
			u, ok := m.allocSimple(t, in, now, false)
			if !ok {
				return
			}
			u.issued = true
			u.doneAt = now + uint64(isa.SpecOf(isa.Pause).Latency)
			t.allocStallUntil = u.doneAt
			t.pendingValid = false
			budget--

		case isa.Nop:
			u, ok := m.allocSimple(t, in, now, false)
			if !ok {
				return
			}
			u.issued = true
			u.doneAt = now + 1
			t.pendingValid = false
			budget--

		default:
			if !m.allocExec(t, in, now, false) {
				return
			}
			t.pendingValid = false
			budget--
		}
	}
}

// allocPick chooses the context served by the front end this cycle: the
// preferred one if it can make progress, otherwise its sibling. A
// spinning context still "makes progress" — its spin loop consumes front-
// end bandwidth, which is exactly the interference the paper measures.
func (m *Machine) allocPick(pref int) *thread {
	for k := 0; k < NumContexts; k++ {
		t := &m.threads[(pref+k)%NumContexts]
		if !t.runnable() || t.halting {
			continue
		}
		if t.allocStallUntil > m.cycle {
			continue
		}
		if !t.pendingValid && t.stream.Done() {
			continue
		}
		return t
	}
	return nil
}

// peekInstr exposes the next unallocated instruction of t, fetching it
// from the stream as needed. The returned pointer is t.pending and is
// valid until the instruction is consumed.
func (m *Machine) peekInstr(t *thread) (*isa.Instr, bool) {
	if !t.pendingValid {
		in, ok := t.stream.NextRef()
		if !ok {
			return nil, false
		}
		t.pending = in
		t.pendingValid = true
	}
	return t.pending, true
}

// allocSimple claims a ROB slot for a non-scheduled µop (nop/pause and
// spin-injected branches go through here too, via allocExec for the
// latter). It returns false without consuming the instruction when the
// ROB partition is full.
func (m *Machine) allocSimple(t *thread, in *isa.Instr, now uint64, spin bool) (*uop, bool) {
	if t.rob.count >= m.limROB {
		m.ctr.Inc(perfmon.ROBStallCycles, t.id)
		return nil, false
	}
	u, _, ok := t.rob.push()
	if !ok {
		// Occupancy is bounded by limit() ≤ capacity, so a failed push is
		// a simulator invariant violation, not a workload condition.
		panic(fmt.Sprintf("smt: ROB ring overflow on context %d", t.id))
	}
	m.seq++
	u.in = *in
	u.seq = m.seq
	u.spin = spin
	u.allocAt = now
	u.issueAt = now
	return u, true
}

// allocExec allocates an executable µop: ROB slot, scheduler-window slot,
// and a load/store-queue entry for memory operations, recording dataflow
// dependences against the architectural register file. It returns false
// (and books the blocking stall event) when any resource is exhausted.
func (m *Machine) allocExec(t *thread, in *isa.Instr, now uint64, spin bool) bool {
	if t.rob.count >= m.limROB {
		m.ctr.Inc(perfmon.ROBStallCycles, t.id)
		return false
	}
	if t.schedCount >= m.limSched {
		m.ctr.Inc(perfmon.SchedStallCycles, t.id)
		return false
	}
	if in.Op == isa.Load && t.ldq >= m.limLDQ {
		m.ctr.Inc(perfmon.LoadBufStallCycles, t.id)
		return false
	}
	if in.Op.IsStore() && t.stq >= m.limSTQ {
		// The paper's "resource stall cycles": the allocator waits for a
		// store-buffer entry.
		m.ctr.Inc(perfmon.ResourceStallCycles, t.id)
		return false
	}

	u, ref, ok := t.rob.push()
	if !ok {
		panic(fmt.Sprintf("smt: ROB ring overflow on context %d", t.id))
	}
	ref.tid = int8(t.id)
	m.seq++
	u.in = *in
	u.seq = m.seq
	u.spin = spin
	u.allocAt = now

	// Dataflow edges: RAW against the latest older writer of each source,
	// WAW against the previous writer of the destination (no rename).
	// Producers that have already issued collapse into a readyAt bound at
	// birth, so the scheduler never has to walk them.
	if in.Src1 != isa.RegNone {
		u.dep1 = m.captureDep(t.regPrev[in.Src1], u, ref, 1)
	}
	if in.Src2 != isa.RegNone {
		u.dep2 = m.captureDep(t.regPrev[in.Src2], u, ref, 2)
	}
	if in.Dst != isa.RegNone {
		u.depW = m.captureDep(t.regPrev[in.Dst], u, ref, 4)
		t.regPrev[in.Dst] = ref
	}

	if in.Op == isa.Load {
		t.ldq++
	}
	if in.Op.IsStore() {
		t.stq++
	}
	t.schedCount++
	wake := u.readyAt
	if u.regBits != 0 &&
		(u.dep1.gen == 0 || u.regBits&1 != 0) &&
		(u.dep2.gen == 0 || u.regBits&2 != 0) &&
		(u.depW.gen == 0 || u.regBits&4 != 0) {
		// Every outstanding producer is registered to prod this µop on
		// dispatch: it can sleep from birth with no wake bound at all.
		wake = schedAsleep
	}
	m.schedInsert(u, ref, opClass[in.Op], wake)
	return true
}

// captureDep folds an already-resolved producer into the consumer's
// readyAt memo, returning the empty reference; unresolved producers keep
// the reference for the scheduler to track, registering the consumer for
// a dispatch prod when the producer's list has room.
func (m *Machine) captureDep(r uopRef, consumer *uop, consRef uopRef, bit uint8) uopRef {
	p := m.resolve(r)
	if p == nil || p.cancelled {
		return uopRef{}
	}
	if p.issued {
		if p.doneAt > consumer.readyAt {
			consumer.readyAt = p.doneAt
		}
		return uopRef{}
	}
	// Allocation runs after the issue stage, so an unissued producer
	// cannot dispatch before next cycle; seed the consumer's readyAt with
	// the completion bound so its scheduler entry sleeps from birth.
	if b := unissuedBound(p, m.cycle); b > consumer.readyAt {
		consumer.readyAt = b
	}
	if int(p.nCons) < len(p.cons) {
		p.cons[p.nCons] = consRef
		p.nCons++
		consumer.regBits |= bit
	}
	return r
}

// injectSpinIteration emits one spin-loop body iteration for an
// unsatisfied SpinWait: a load of the synchronisation cell plus the
// loop-closing branch, and — in the pause-augmented form the paper
// recommends — a pause that throttles further allocation. It returns the
// number of µops allocated and whether the front end may continue this
// cycle.
func (m *Machine) injectSpinIteration(t *thread, in *isa.Instr, now uint64, budget int) (int, bool) {
	if budget < 2 {
		return 0, false
	}
	ld := isa.Instr{Op: isa.Load, Dst: spinReg, Addr: isa.CellAddr(in.Cell)}
	if !m.allocExec(t, &ld, now, true) {
		return 0, false
	}
	n := 1
	br := isa.Instr{Op: isa.Branch}
	if m.allocExec(t, &br, now, true) {
		n++
	}
	if in.UsePause {
		if budget-n < 1 {
			return n, false
		}
		u, ok := m.allocSimple(t, &isa.Instr{Op: isa.Pause}, now, true)
		if !ok {
			return n, false
		}
		u.issued = true
		u.doneAt = now + uint64(isa.SpecOf(isa.Pause).Latency)
		t.allocStallUntil = u.doneAt
		n++
		return n, false // pause gates the rest of the cycle
	}
	return n, true
}

// finishSpin completes a satisfied SpinWait: the in-flight spin-loop µops
// beyond the observing load are flushed (the memory-order violation the
// paper describes) and the context pays the flush penalty before
// continuing with program µops.
func (m *Machine) finishSpin(t *thread, now uint64) {
	t.pendingValid = false
	if !t.spinning {
		// Condition was already true on first encounter: the loop never
		// spun, no flush occurs.
		return
	}
	t.spinning = false

	m.flushSpinTail(t)
	m.ctr.Inc(perfmon.PipelineFlushes, t.id)
	m.ctr.Add(perfmon.FlushPenaltyCycles, t.id, uint64(m.cfg.SpinExitFlushPenalty))
	if until := now + uint64(m.cfg.SpinExitFlushPenalty); until > t.allocStallUntil {
		t.allocStallUntil = until
	}
	t.regPrev[spinReg] = uopRef{}
}

// flushSpinTail removes the unretired spin-injected µops, which form a
// contiguous suffix of the context's ROB (nothing else allocates while the
// context spins). Flushed slots are invalidated so scheduler references
// go stale, and their queue entries are released.
func (m *Machine) flushSpinTail(t *thread) int {
	flushed := 0
	for t.rob.count > 0 {
		idx := (t.rob.head + t.rob.count - 1) & t.rob.mask
		u := &t.rob.buf[idx]
		if !u.spin {
			break
		}
		if u.in.Op == isa.Load {
			t.ldq--
		}
		// The scheduler-window slot of an unissued spin µop is released
		// by the issue-stage compaction when its reference goes stale.
		u.cancelled = true
		u.gen++ // invalidate outstanding references
		t.rob.count--
		flushed++
	}
	if flushed > 0 {
		// Invalidated references may be sleeping under a wake bound; zero
		// it so the issue scan reaps them on schedule.
		m.schedWakeStale()
	}
	return flushed
}
