package smt

import (
	"math/bits"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
)

// schedEntry is one scheduler-window slot: the µop reference plus a
// conservative wake bound — a cycle before which examining the µop is
// provably a no-op (dependences cannot have completed or a retry delay
// is pending). The bound files the entry in the wake wheel, so the
// select never visits it before then. Wake bounds are advisory: a
// stale-low bound re-examines harmlessly (every skipped examination path
// is mutation-free), so they are neither serialized in snapshots nor
// consulted for anything but scan pruning.
type schedEntry struct {
	ref uopRef
	// class is the µop's port class (opClass), so the port probe of a
	// ready entry needs no ROB access.
	class uint8
	// ready caches a true uopReady verdict and mirrors membership of
	// the class's ready bitmap. Readiness is sticky — a satisfied
	// dependence is cleared from the µop and readyAt never rises
	// afterwards — so the flag is dropped only by a rejected load's
	// replay and by the spin-exit flush, via schedWakeStale.
	ready bool
	wake  uint64
}

// schedAsleep is the wake bound of an entry with no scheduled
// re-examination: it sleeps until a producer dispatch prods it.
const schedAsleep = ^uint64(0)

// wheelSlots is the wake wheel's size in cycles. A wake further out is
// parked at the horizon and re-filed from there.
const wheelSlots = 64

// schedInsert appends the reference of µop u (nil when the reference is
// stale) to the scheduler ring in allocation order. wake is the entry's
// initial wake bound (the consumer's readyAt memo captured at
// allocation) and class the µop's port class.
func (m *Machine) schedInsert(u *uop, ref uopRef, class uint8, wake uint64) {
	// Compact one bitmap word short of capacity: the scan walks
	// 64-aligned absolute windows, and keeping the span under
	// capacity-64 guarantees no two windows alias the same physical
	// word — otherwise the oldest and newest entries would share a word
	// and be visited out of age order.
	if m.schedTail-m.schedHead >= uint64(len(m.schedRing)-64) {
		m.schedCompact()
	}
	slot := m.schedTail & uint64(len(m.schedRing)-1)
	m.schedRing[slot] = schedEntry{ref: ref, class: class, wake: wake}
	if u != nil {
		u.schedSlot = uint32(slot)
	}
	m.schedLive[slot>>6] |= 1 << (slot & 63)
	m.schedPlace(slot, wake)
	m.schedTail++
}

// schedPlace files the unready entry at slot under its wake bound: due
// when the bound lies before the wheel's cursor, in the wheel bucket of
// the bound (parked at the horizon when further out), or nowhere for a
// deep sleeper, which waits for a prod.
func (m *Machine) schedPlace(slot, wake uint64) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	switch {
	case wake == schedAsleep:
	case wake < m.wheelAt:
		m.schedDue[w] |= bit
	default:
		if h := m.wheelAt + wheelSlots - 1; wake > h {
			wake = h
		}
		b := wake & (wheelSlots - 1)
		m.wheel[b*uint64(len(m.schedLive))+w] |= bit
		m.wheelOcc |= 1 << b
	}
}

// schedSetReady moves the entry at slot into its class's ready bitmap
// (in) or out of it.
func (m *Machine) schedSetReady(slot uint64, e *schedEntry, in bool) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	r := &m.schedReady[int(e.class)*len(m.schedLive)+int(w)]
	e.ready = in
	if in {
		*r |= bit
		m.schedReadyAll[w] |= bit
	} else {
		*r &^= bit
		m.schedReadyAll[w] &^= bit
	}
}

// wheelDrain moves the wheel buckets of cycles [wheelAt, now] into the
// due set and advances the cursor past now. A bucket bit of an entry that
// has since left the window or turned ready is dropped; one left behind
// by a prod that re-filed its entry only costs a re-examination.
func (m *Machine) wheelDrain(now uint64) {
	occ := m.wheelOcc
	if span := now - m.wheelAt; span < wheelSlots-1 {
		occ &= bits.RotateLeft64(1<<(span+1)-1, int(m.wheelAt&(wheelSlots-1)))
	}
	m.wheelOcc &^= occ
	nw := len(m.schedLive)
	for ; occ != 0; occ &= occ - 1 {
		row := m.wheel[bits.TrailingZeros64(occ)*nw:][:nw]
		for w, v := range row {
			if v != 0 {
				m.schedDue[w] |= v & m.schedLive[w] &^ m.schedReadyAll[w]
				row[w] = 0
			}
		}
	}
	m.wheelAt = now + 1
}

// schedClearSets empties every per-slot bitmap: occupancy, due, ready
// and the wheel.
func (m *Machine) schedClearSets() {
	clear(m.schedLive)
	clear(m.schedDue)
	clear(m.schedReady)
	clear(m.schedReadyAll)
	clear(m.wheel)
	m.wheelOcc = 0
}

// schedCompact squeezes the holes out of the ring when the absolute span
// reaches capacity. Live entries keep their relative (age) order, so the
// scan — and therefore simulated timing — is unaffected, and each is
// re-filed from its ready flag and wake bound. Amortised cost is O(1)
// per insertion: at least half the span is holes when it fires.
func (m *Machine) schedCompact() {
	mask := uint64(len(m.schedRing) - 1)
	n := uint64(0)
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		if m.schedLive[slot>>6]&(1<<(slot&63)) != 0 {
			m.schedScratch[n] = m.schedRing[slot]
			n++
		}
	}
	m.schedClearSets()
	copy(m.schedRing, m.schedScratch[:n])
	for i := uint64(0); i < n; i++ {
		e := &m.schedRing[i]
		m.schedLive[i>>6] |= 1 << (i & 63)
		if e.ready {
			m.schedSetReady(i, e, true)
		} else {
			m.schedPlace(i, e.wake)
		}
		// Keep the µop's back-pointer valid so dispatch prods land.
		if u := m.resolve(e.ref); u != nil {
			u.schedSlot = uint32(i)
		}
	}
	m.schedHead, m.schedTail = 0, n
}

// schedEach visits the live scheduler entries oldest-first (snapshot and
// introspection path; the hot scan in issue is hand-rolled).
func (m *Machine) schedEach(fn func(schedEntry)) {
	mask := uint64(len(m.schedRing) - 1)
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		if m.schedLive[slot>>6]&(1<<(slot&63)) != 0 {
			fn(m.schedRing[slot])
		}
	}
}

// schedLen counts the live scheduler entries.
func (m *Machine) schedLen() int {
	n := 0
	for _, w := range m.schedLive {
		n += bits.OnesCount64(w)
	}
	return n
}

// schedReset empties the ring (Restore path) and restarts the wheel at
// the current cycle. Entries are re-inserted with wake 0 — due at once,
// exactly as the per-slot scan treated every entry — so a restored
// machine steps identically.
func (m *Machine) schedReset() {
	m.schedClearSets()
	m.schedHead, m.schedTail = 0, 0
	m.wheelAt = m.cycle
}

// schedWakeStale makes every entry whose reference went stale
// (spin-flush invalidation) due, so the next scan drops it — and
// releases its window slot — on the same cycle the per-slot scan always
// did, keeping allocation timing byte-identical.
func (m *Machine) schedWakeStale() {
	mask := uint64(len(m.schedRing) - 1)
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		w, bit := slot>>6, uint64(1)<<(slot&63)
		if m.schedLive[w]&bit == 0 {
			continue
		}
		e := &m.schedRing[slot]
		if u := m.resolve(e.ref); u == nil || u.cancelled || u.issued {
			if e.ready {
				m.schedSetReady(slot, e, false)
			}
			e.wake = 0
			m.schedDue[w] |= bit
		}
	}
}

// schedNext returns a lower bound, capped at limit, on the first cycle
// at or after now at which a scheduler entry could act (dispatch, replay
// a rejected load or be reaped as stale): now while any entry is due;
// otherwise the earliest cycle a unit of a ready entry's class is free
// (port budgets reset every cycle, so at a cycle's start only initiation
// intervals bind) or the earliest wake in the wheel. Deep sleepers act
// only after a prod, which only a dispatch sends.
func (m *Machine) schedNext(now, limit uint64) uint64 {
	for _, due := range m.schedDue {
		if due != 0 {
			return now
		}
	}
	nw := len(m.schedLive)
	next := limit
	for w, r := range m.schedReadyAll {
		if r == 0 {
			continue
		}
		for c := range classPorts {
			if m.schedReady[c*nw+w] == 0 {
				continue
			}
			for _, pc := range classPorts[c] {
				if nf := m.unitNextFree[pc.unit]; nf <= now {
					return now
				} else if nf < next {
					next = nf
				}
			}
		}
	}
	// Walk the wheel's buckets in cycle order from the cursor. Every
	// entry filed under cycle d wakes no earlier than d (a parked one
	// later), so the walk ends at the first bucket at or past the best
	// bound; a leftover bit only lowers the bound.
	for occ := m.wheelOcc; occ != 0; {
		off := uint64(bits.TrailingZeros64(bits.RotateLeft64(occ, -int(m.wheelAt&(wheelSlots-1)))))
		if m.wheelAt+off >= next {
			break
		}
		b := (m.wheelAt + off) & (wheelSlots - 1)
		occ &^= 1 << b
		for w, v := range m.wheel[int(b)*nw:][:nw] {
			for v &= m.schedLive[w] &^ m.schedReadyAll[w]; v != 0; v &= v - 1 {
				next = min(next, m.schedRing[w<<6|bits.TrailingZeros64(v)].wake)
			}
		}
	}
	return max(next, now)
}

// issue dispatches ready µops from the shared scheduler window to the
// execution ports, oldest first across both contexts, up to IssueWidth per
// cycle. Port bandwidth is modelled in half-slots: the double-speed ALUs
// accept two µops per cycle on their port, while any other µop (FP,
// slow-int, load, store) occupies its port for the whole cycle.
// Non-pipelined or partially pipelined units additionally enforce their
// initiation interval through unitNextFree.
//
// The select visits only entries that can act: the due set (entries
// whose wake bound has passed, and stale ones) and the ready bitmaps of
// port classes not yet exhausted this cycle, merged oldest-first one
// bitmap word at a time. Every other live entry sleeps, and its
// examination would be a no-op; it is retained without a visit.
func (m *Machine) issue() {
	now := m.cycle
	m.wheelDrain(now)
	idle := true
	for w, due := range m.schedDue {
		if due|m.schedReadyAll[w] != 0 {
			idle = false
			break
		}
	}
	if idle {
		// Every live entry sleeps: nothing to visit, dispatch or reap,
		// and the head already sits on a live entry.
		return
	}
	issued := 0
	var portBudget [isa.NumPorts]int
	for p := 1; p < isa.NumPorts; p++ {
		portBudget[p] = 2 // two half-slots per port per cycle
	}

	// The select logic examines only the oldest scanLimit candidates per
	// cycle, like the bounded wakeup/select of the modelled scheduler
	// queues; younger entries wait until age brings them forward. Every
	// live entry older than a candidate was retained — dispatched and
	// reaped entries have left schedLive — so the retained count at a
	// candidate is kept (the live entries of the words already passed)
	// plus the live bits below it in its own word.
	const scanLimit = 64

	width := m.cfg.IssueWidth
	nw := len(m.schedLive)
	mask := uint64(len(m.schedRing) - 1)
	kept := 0
	// blocked holds the port classes pickPort has failed for this cycle:
	// budgets only shrink and units only get busier within a cycle, so
	// their remaining ready entries cannot dispatch either.
	var blocked uint32
	var issuedBy [NumContexts]uint64

	// Walk 64-aligned absolute windows; each maps to exactly one bitmap
	// word (the span never exceeds ring capacity, and bits outside
	// [head, tail) are clear).
scan:
	for base := m.schedHead &^ 63; base < m.schedTail; base += 64 {
		w := (base & mask) >> 6
		live := m.schedLive[w]
		if live == 0 {
			continue
		}
		ready := m.schedReadyAll[w]
		for bl := blocked; bl != 0 && ready != 0; bl &= bl - 1 {
			ready &^= m.schedReady[bits.TrailingZeros32(bl)*nw+int(w)]
		}
		cand := (m.schedDue[w] | ready) & live
		// Below the bound even with every live bit of the word retained,
		// no candidate here needs the per-bit count.
		bounded := kept+bits.OnesCount64(live) > scanLimit
		for cand != 0 {
			b := bits.TrailingZeros64(cand)
			bit := uint64(1) << b
			cand &^= bit
			if issued >= width || bounded && kept+bits.OnesCount64(m.schedLive[w]&(bit-1)) >= scanLimit {
				break scan
			}
			slot := w<<6 | uint64(b)
			e := &m.schedRing[slot]
			ref := e.ref
			var u *uop
			if !e.ready {
				m.schedDue[w] &^= bit
				if e.wake > now {
					// Parked at the wheel's horizon, or a bucket bit a
					// prod left behind: still asleep.
					m.schedPlace(slot, e.wake)
					continue
				}
				u = m.resolve(ref)
				if u == nil || u.cancelled || u.issued {
					// Stale (flushed) or already dispatched: drop the
					// entry and release the window slot.
					m.schedLive[w] &^= bit
					m.threads[ref.tid].schedCount--
					continue
				}
				if u.retryAt > now {
					e.wake = max(u.readyAt, u.retryAt)
					m.schedPlace(slot, e.wake)
					continue
				}
				if ready, deep := m.uopReady(u, ref, now); !ready {
					// Not ready: sleep until the memoised bound — or,
					// when every outstanding producer will prod this
					// entry on dispatch, without any bound at all. A
					// false uopReady always leaves readyAt > now, and in
					// between the per-slot loop's examination was a
					// no-op, so the skip is timing-exact.
					e.wake = u.readyAt
					if deep {
						e.wake = schedAsleep
					}
					m.schedPlace(slot, e.wake)
					continue
				}
				if blocked&(1<<e.class) != 0 {
					m.schedSetReady(slot, e, true)
					continue
				}
			}
			// A due entry found ready probes a port first and joins its
			// class's ready bitmap only if the probe fails: one that
			// dispatches at once never enters the set.
			port, unit, cost, ok := m.pickPort(e.class, portBudget[:], now)
			if !ok {
				blocked |= 1 << e.class
				cand &^= m.schedReady[int(e.class)*nw+int(w)]
				if !e.ready {
					m.schedSetReady(slot, e, true)
				}
				continue
			}
			if u == nil {
				u = m.resolve(ref)
			}
			// The issue slot and port bandwidth are consumed even by a
			// load the MSHR file rejects.
			portBudget[port] -= cost
			issued++
			if e.ready {
				m.schedSetReady(slot, e, false)
			}
			if !m.execute(u, ref, port, unit, now) {
				// The load replays from the wheel at its retry cycle.
				e.wake = u.retryAt
				m.schedPlace(slot, e.wake)
				continue
			}
			issuedBy[ref.tid]++
			m.schedLive[w] &^= bit
			m.threads[ref.tid].schedCount--
			if u.nCons != 0 {
				m.prodConsumers(u)
			}
		}
		kept += bits.OnesCount64(m.schedLive[w])
		if kept >= scanLimit || issued >= width {
			break
		}
	}
	m.issueDone(issuedBy)
}

// issueDone books the cycle's dispatches and advances the ring head past
// leading holes, so the span — and compaction pressure — tracks the live
// window. Amortised O(1): head only moves forward.
func (m *Machine) issueDone(issuedBy [NumContexts]uint64) {
	for tid, n := range issuedBy {
		if n != 0 {
			m.ctr.Add(perfmon.IssuedUops, tid, n)
		}
	}
	mask := uint64(len(m.schedRing) - 1)
	for m.schedHead < m.schedTail {
		slot := m.schedHead & mask
		if rest := m.schedLive[slot>>6] >> (slot & 63); rest != 0 {
			m.schedHead += uint64(bits.TrailingZeros64(rest))
			return
		}
		m.schedHead += 64 - slot&63
	}
	m.schedHead = m.schedTail
}

// execute starts u on (port, unit) at cycle now and reports whether it
// dispatched. A load the MSHR file rejects does not: it replays at
// u.retryAt.
func (m *Machine) execute(u *uop, ref uopRef, port isa.Port, unit isa.Unit, now uint64) bool {
	switch u.in.Op {
	case isa.Load:
		res := m.hier.Access(now, int(ref.tid), u.in.Addr, false, u.in.Tag)
		if res.Retry {
			u.retryAt = now + uint64(m.cfg.RetryDelay)
			m.ctr.Inc(perfmon.ReplayedUops, int(ref.tid))
			return false
		}
		u.doneAt = now + uint64(res.Latency)
		m.bookAccess(int(ref.tid), res, false)
		if m.cfg.MachineClearPenalty > 0 {
			t := &m.threads[ref.tid]
			t.inflightLoads[t.loadRecPos&7] = loadRec{ref: ref, line: u.in.Addr &^ 63}
			t.loadRecPos++
		}
	case isa.Prefetch:
		// Non-binding software prefetch: the fill starts (or the hint is
		// dropped when the MSHR file is full) but the µop itself
		// completes at address-generation latency — it never blocks.
		res := m.hier.Access(now, int(ref.tid), u.in.Addr, false, u.in.Tag)
		if !res.Retry {
			m.bookAccess(int(ref.tid), res, false)
		}
		u.doneAt = now + uint64(isa.SpecOf(isa.Prefetch).Latency)
	default:
		u.doneAt = now + opLatency[u.in.Op]
	}
	u.issued = true
	u.issueAt = now
	u.port, u.unit = port, unit
	if rec := opRecurrence[u.in.Op]; rec > 1 {
		m.unitNextFree[unit] = now + rec
	}
	return true
}

// Dependence examination outcomes beyond plain settled/unsettled, used to
// decide whether an unready µop may sleep until prodded rather than poll.
const (
	depDone     = iota // settled: producer complete or gone
	depPending         // issued; completion bound folded into readyAt
	depWillProd        // unissued, registered: producer dispatch will prod
	depPoll            // unissued, unregistered: consumer must poll
)

// uopReady reports whether all dataflow dependences of u are satisfied.
// Satisfied references are cleared and producer completion times memoised
// in readyAt, so the per-cycle scheduler scan degenerates to a single
// comparison for most waiting µops. deep reports that an unready µop may
// sleep without a finite wake bound: at least one outstanding producer is
// registered to prod it on dispatch, and none requires polling — pending
// (already-issued) producers are safe to oversleep because their
// completion is folded into readyAt, which every future prod honours.
func (m *Machine) uopReady(u *uop, ref uopRef, now uint64) (ready, deep bool) {
	if u.readyAt > now {
		return false, false
	}
	ready = true
	willProd, poll := false, false
	if u.dep1.gen != 0 {
		switch m.depSettled(&u.dep1, u, ref, 1, now) {
		case depDone:
			u.dep1 = uopRef{}
		case depWillProd:
			ready, willProd = false, true
		case depPoll:
			ready, poll = false, true
		default:
			ready = false
		}
	}
	if u.dep2.gen != 0 {
		switch m.depSettled(&u.dep2, u, ref, 2, now) {
		case depDone:
			u.dep2 = uopRef{}
		case depWillProd:
			ready, willProd = false, true
		case depPoll:
			ready, poll = false, true
		default:
			ready = false
		}
	}
	if u.depW.gen != 0 {
		switch m.depSettled(&u.depW, u, ref, 4, now) {
		case depDone:
			u.depW = uopRef{}
		case depWillProd:
			ready, willProd = false, true
		case depPoll:
			ready, poll = false, true
		default:
			ready = false
		}
	}
	return ready, willProd && !poll
}

// depSettled examines the dependence *r at cycle now, advancing the
// consumer's readyAt to the best known completion bound and registering
// the consumer for a dispatch prod when the producer has room.
func (m *Machine) depSettled(r *uopRef, consumer *uop, consRef uopRef, bit uint8, now uint64) int {
	p := m.resolve(*r)
	if p == nil || p.cancelled {
		return depDone
	}
	if !p.issued {
		if b := unissuedBound(p, now); b > consumer.readyAt {
			consumer.readyAt = b
		}
		if consumer.regBits&bit == 0 {
			if int(p.nCons) == len(p.cons) {
				return depPoll
			}
			p.cons[p.nCons] = consRef
			p.nCons++
			consumer.regBits |= bit
		}
		return depWillProd
	}
	if p.doneAt <= now {
		return depDone
	}
	if p.doneAt > consumer.readyAt {
		consumer.readyAt = p.doneAt
	}
	return depPending
}

// prodConsumers wakes the registered consumers of a µop that just
// dispatched: each gets its readyAt raised to the producer's completion
// time and its scheduler entry re-filed in the wheel at that cycle. The
// slot is validated against the consumer's reference, so a recycled or
// compacted ring can never be corrupted by a stale prod. A registered
// consumer is never ready (its dependence on p is still open), so the
// entry is a deep or timed sleeper, or due.
func (m *Machine) prodConsumers(p *uop) {
	for i := 0; i < int(p.nCons); i++ {
		ref := p.cons[i]
		c := m.resolve(ref)
		if c == nil || c.cancelled || c.issued {
			continue
		}
		if p.doneAt > c.readyAt {
			c.readyAt = p.doneAt
		}
		slot := uint64(c.schedSlot)
		e := &m.schedRing[slot]
		if e.ref == ref && !e.ready {
			// readyAt is always a valid wake bound for an unissued µop,
			// so set it unconditionally — raising a deep-asleep entry's
			// sentinel down, or a stale-low poll bound up. It lies past
			// now, so a due entry leaves the due set; a bucket bit it
			// already holds at most re-examines it early.
			e.wake = c.readyAt
			m.schedDue[slot>>6] &^= 1 << (slot & 63)
			m.schedPlace(slot, e.wake)
		}
	}
	p.nCons = 0
}

// unissuedBound returns a lower bound on the completion time of the
// unissued producer p as observed at cycle now: p cannot acquire a port
// before max(now+1, readyAt, retryAt) — the issue scan is oldest-first
// and single-pass, so a producer seen unissued cannot dispatch until the
// next cycle — and completion follows no sooner than its fixed latency
// (1 for loads, whose latency is decided by the cache at issue). The
// bound lets a dependence chain sleep each consumer until the first
// cycle its producer could possibly have finished, collapsing the
// re-memoisation walks that otherwise recur every other cycle.
// Cancellation cannot settle a dependence ahead of this bound: the only
// cancellation path is the spin-exit flush, and spin µops are consumed
// exclusively by other spin µops flushed in the same call.
func unissuedBound(p *uop, now uint64) uint64 {
	earliest := now + 1
	if p.readyAt > earliest {
		earliest = p.readyAt
	}
	if p.retryAt > earliest {
		earliest = p.retryAt
	}
	lat := uint64(1)
	if op := p.in.Op; op != isa.Load {
		if l := opLatency[op]; l > 1 {
			lat = l
		}
	}
	return earliest + lat
}

// pickPort selects an issue port for a µop of port class c honouring
// per-cycle half-slot budgets and unit initiation intervals. cost is 1
// half-slot for double-speed ALU µops, 2 (the full port) otherwise.
func (m *Machine) pickPort(c uint8, portBudget []int, now uint64) (isa.Port, isa.Unit, int, bool) {
	for _, pc := range classPorts[c] {
		if portBudget[pc.port] < pc.cost {
			continue
		}
		if m.unitNextFree[pc.unit] > now {
			continue
		}
		return pc.port, pc.unit, pc.cost, true
	}
	return isa.PortNone, isa.UnitNone, 0, false
}
