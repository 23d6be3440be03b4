package smt

import (
	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
)

// Event-driven fast-forward.
//
// A cycle is quiet when every pipeline stage is provably a no-op apart
// from per-cycle counter bookkeeping: no store-buffer entry drains, no
// halt/wake/completion transition fires, no µop can retire, no scheduler
// entry can act (dispatch or stale-reap), and the front end either has
// nothing pickable or is stalled on a full partitioned resource. All of
// those conditions are functions of time against otherwise-frozen state,
// each with a known next-event cycle, so a whole span of quiet cycles
// collapses into bulk counter additions and one jump of the cycle
// counter. The skip is exact: counters, timing and the deadlock watchdog
// observe precisely what stepping each cycle would have produced.

// ffSkip attempts to jump from the current cycle to the earliest future
// cycle at which any stage could act, clamped to bound (the first cycle
// the caller's loop must re-examine: a pause point, the maxCycles edge or
// the deadlock-watchdog trigger). It books the skipped cycles' counters
// in bulk and reports whether it advanced the clock.
func (m *Machine) ffSkip(bound uint64) bool {
	now := m.cycle
	if bound <= now {
		return false
	}
	event := bound

	// Scheduler: an entry that may act this cycle — a due entry (a retry
	// expiry, a stale-reference reap) or a ready one with a free unit —
	// means no skip; otherwise the next unit release of a ready class or
	// the earliest wake in the wheel bounds the span.
	if m.schedTail != m.schedHead {
		if event = m.schedNext(now, event); event <= now {
			return false
		}
	}

	var stallEv [NumContexts]perfmon.Event
	var stallOK [NumContexts]bool
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started || t.done {
			continue
		}
		// Drain-to-halt and completion transitions re-partition the
		// machine; take those cycle by cycle.
		if t.halting {
			return false
		}
		if !t.pendingValid && t.stream.Done() && t.drained() {
			return false
		}
		if t.halted {
			if t.wakeAt != 0 {
				if t.wakeAt <= now {
					return false
				}
				if t.wakeAt < event {
					event = t.wakeAt
				}
			} else if t.pendingValid && m.cellHolds(t.pending) {
				// The wake would begin this cycle. Cells are frozen
				// inside a quiet span (publication happens only at
				// FlagStore retirement), so a false predicate here
				// stays false for the whole span.
				return false
			}
		}
		// Retirement is in-order: only the ROB head can commit, and no
		// dispatch inside the span can issue it (the scheduler events
		// above bound that), so an unissued head needs no event.
		if u := t.rob.peek(); u != nil && u.issued {
			if u.doneAt <= now {
				return false
			}
			if u.doneAt < event {
				event = u.doneAt
			}
		}
		for _, at := range t.stqFree {
			if at <= now {
				return false
			}
			if at < event {
				event = at
			}
		}

		// Front end, mirroring allocPick and the allocate stage's first
		// probe against this thread's frozen occupancies.
		if !t.runnable() {
			continue // halted: allocPick skips it
		}
		if t.allocStallUntil > now {
			if t.allocStallUntil < event {
				event = t.allocStallUntil
			}
			continue
		}
		if !t.pendingValid {
			if t.stream.Done() {
				continue // nothing to fetch, allocPick skips it
			}
			return false // the front end would fetch this cycle
		}
		ev, blocked := m.allocBlocked(t)
		if !blocked {
			return false // the front end would allocate or expand a wait
		}
		stallEv[i] = ev
		stallOK[i] = true
	}

	k := event - now
	if k == 0 {
		return false
	}

	// Bulk bookkeeping for the skipped span [now, now+k): exactly what k
	// quiet iterations of Step would have booked. A stalled front end
	// books one stall event per cycle for the context allocPick selects;
	// with both contexts stalled the preference alternates by cycle
	// parity, so the span splits into its even and odd cycles.
	evens := k / 2
	if k%2 == 1 && now%2 == 0 {
		evens++
	}
	odds := k - evens
	switch {
	case stallOK[0] && stallOK[1]:
		m.ctr.Add(stallEv[0], 0, evens)
		m.ctr.Add(stallEv[1], 1, odds)
	case stallOK[0]:
		m.ctr.Add(stallEv[0], 0, k)
	case stallOK[1]:
		m.ctr.Add(stallEv[1], 1, k)
	}
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started || t.done {
			continue
		}
		if t.halted {
			m.ctr.Add(perfmon.HaltedCycles, t.id, k)
		} else {
			m.ctr.Add(perfmon.Cycles, t.id, k)
		}
		if t.spinning || t.halted { // halting never enters a span
			m.ctr.Add(perfmon.BarrierWaitCycles, t.id, k)
			if t.pendingValid && t.pending.Cell != isa.NoCell {
				m.cellWait[t.pending.Cell] += k
			}
		}
	}
	m.cycle = event
	return true
}

// allocBlocked reports whether the pending instruction of a pickable
// context is stalled on a full partitioned resource — the only front-end
// outcome that leaves a cycle quiet — and which stall event the allocate
// stage would book for it, mirroring allocSimple/allocExec's probe order
// against occupancies that cannot change inside the span.
func (m *Machine) allocBlocked(t *thread) (perfmon.Event, bool) {
	switch t.pending.Op {
	case isa.SpinWait, isa.HaltWait:
		// Wait expansion always acts (injects, finishes or halts).
		return 0, false
	case isa.Pause, isa.Nop:
		if t.rob.count >= m.limit(m.cfg.ROB) {
			return perfmon.ROBStallCycles, true
		}
		return 0, false
	}
	if t.rob.count >= m.limit(m.cfg.ROB) {
		return perfmon.ROBStallCycles, true
	}
	if t.schedCount >= m.limit(m.cfg.SchedWindow) {
		return perfmon.SchedStallCycles, true
	}
	if t.pending.Op == isa.Load && t.ldq >= m.limit(m.cfg.LoadQ) {
		return perfmon.LoadBufStallCycles, true
	}
	if t.pending.Op.IsStore() && t.stq >= m.limit(m.cfg.StoreQ) {
		return perfmon.ResourceStallCycles, true
	}
	return 0, false
}
