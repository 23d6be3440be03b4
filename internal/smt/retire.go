package smt

import (
	"smtexplore/internal/isa"
	"smtexplore/internal/mem"
	"smtexplore/internal/perfmon"
)

// retire commits completed µops in order, up to RetireWidth per cycle,
// alternating which context is served first. Stores perform their cache
// access here (post-retirement drain) and hold their store-buffer entry
// until the drain completes; FlagStores additionally publish their value
// to the synchronisation cell.
func (m *Machine) retire() {
	now := m.cycle
	budget := m.cfg.RetireWidth
	first := int(m.cycle % NumContexts)
	for k := 0; k < NumContexts && budget > 0; k++ {
		t := &m.threads[(first+k)%NumContexts]
		var uops, spin, instr, pause uint64
		for budget > 0 {
			u := t.rob.peek()
			if u == nil || !u.issued || u.doneAt > now {
				break
			}
			if u.in.Op.IsStore() {
				// Drain the store to the cache hierarchy now. A full
				// MSHR file blocks retirement of this context.
				res := m.hier.Access(now, t.id, u.in.Addr, true, u.in.Tag)
				if res.Retry {
					m.ctr.Inc(perfmon.MSHRRetryCycles, t.id)
					break
				}
				at := now + uint64(res.Latency)
				if len(t.stqFree) == 0 || at < t.stqNext {
					t.stqNext = at
				}
				t.stqFree = append(t.stqFree, at)
				m.bookAccess(t.id, res, true)
				if u.in.Op == isa.FlagStore {
					m.cells[u.in.Cell] = u.in.Val
				}
				if m.cfg.MachineClearPenalty > 0 {
					m.machineClearCheck(t.id, u.in.Addr&^63, now)
				}
			}
			if u.in.Op == isa.Load {
				t.ldq--
			}
			uops++
			if u.spin {
				spin++
			} else {
				instr++
				// Only program µops count as forward progress: a spin
				// loop on a never-satisfied cell retires µops forever
				// without progressing, and the deadlock watchdog must
				// still fire for it.
				m.lastRetireCycle = now
			}
			if u.in.Op == isa.Pause {
				pause++
			}
			if m.armed&armRetire != 0 {
				// An armed observer may read the counters mid-cycle (e.g.
				// snapshotting at a tagged retirement), so the batched
				// deltas must be visible before it runs — flush them and
				// reset the accumulators.
				m.ctr.Add(perfmon.UopsRetired, t.id, uops)
				m.ctr.Add(perfmon.InstrRetired, t.id, instr)
				m.ctr.Add(perfmon.SpinUopsRetired, t.id, spin)
				m.ctr.Add(perfmon.PauseUopsRetired, t.id, pause)
				uops, spin, instr, pause = 0, 0, 0, 0
				m.onRetire(RetireInfo{
					Tid: t.id, Instr: u.in, Unit: u.unit, Spin: u.spin, Cycle: now,
					AllocCycle: u.allocAt, IssueCycle: u.issueAt, CompleteCycle: u.doneAt,
				})
			}
			t.rob.pop()
			budget--
		}
		if uops != 0 {
			m.ctr.Add(perfmon.UopsRetired, t.id, uops)
			if instr != 0 {
				m.ctr.Add(perfmon.InstrRetired, t.id, instr)
			}
			if spin != 0 {
				m.ctr.Add(perfmon.SpinUopsRetired, t.id, spin)
			}
			if pause != 0 {
				m.ctr.Add(perfmon.PauseUopsRetired, t.id, pause)
			}
		}
	}
}

// bookAccess mirrors a cache access's miss events into the monitoring
// bank, so the perfmon counters alone tell the paper's story (the
// hierarchy keeps its own richer attribution).
func (m *Machine) bookAccess(tid int, res mem.AccessResult, write bool) {
	if res.L1Miss {
		m.ctr.Inc(perfmon.L1Misses, tid)
	}
	if res.L2Miss {
		m.ctr.Inc(perfmon.L2Misses, tid)
		if !write {
			m.ctr.Inc(perfmon.L2ReadMisses, tid)
		}
	}
}

// machineClearCheck models the hyper-threading memory-order machine clear:
// when context tid retires a store into line while the sibling has an
// in-flight load of the same line, that load replays, paying the
// configured penalty. This is what makes fine-grained sharing of cache
// lines between the logical processors expensive.
func (m *Machine) machineClearCheck(tid int, line uint64, now uint64) {
	sib := &m.threads[1-tid]
	for i := range sib.inflightLoads {
		rec := &sib.inflightLoads[i]
		if rec.line != line || rec.ref.gen == 0 {
			continue
		}
		u := m.resolve(rec.ref)
		if u == nil || u.cancelled || !u.issued || u.doneAt <= now {
			continue
		}
		u.doneAt += uint64(m.cfg.MachineClearPenalty)
		// The clear flushes the sibling's in-flight speculative work:
		// its front end re-fills for the penalty duration.
		if until := now + uint64(m.cfg.MachineClearPenalty); until > sib.allocStallUntil {
			sib.allocStallUntil = until
		}
		m.ctr.Inc(perfmon.MachineClears, sib.id)
		m.ctr.Add(perfmon.MachineClearCycles, sib.id, uint64(m.cfg.MachineClearPenalty))
	}
}
