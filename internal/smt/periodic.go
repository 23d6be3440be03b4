package smt

import (
	"math/bits"
	"slices"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/trace"
)

// Exact periodic skip.
//
// A machine whose every context runs a loop stream (trace.LoopBody) with
// no memory traffic and no synchronisation is a deterministic function
// of a finite state, so it settles into an exact cycle: run alone, the
// paper's arithmetic streams repeat every 22–3,584 cycles. RunPausable
// samples the state each time the lead context crosses a body boundary:
// first the one with the longest loop body, then, once the other has
// crossed two fewer bodies since the run began, the other, so a slow
// partner sets the sampling rate. The sample is an encoding of
// everything that decides the future — the pipeline state Snapshot
// serialises minus counters and sequence numbers — made
// translation-invariant: absolute cycles become
// offsets from the current cycle, ROB and scheduler positions become
// offsets from their heads, and generation-checked references reduce to
// "in flight at this offset" or nil. A hash of the encoding nominates a
// period P (an earlier sample with the same hash, P cycles ago); an exact
// comparison of the encoding P cycles after the nominated sample proves
// it. The machine then jumps k whole periods at once: every absolute
// cycle shifts by kP, each perfmon counter grows by k times its
// per-period delta, each stream skips k periods' worth of instructions,
// and the remainder up to the next loop bound is stepped normally.
//
// Times the simulator only compares against the current cycle or takes
// the maximum of (readiness, retry, unit-free and stall bounds) encode
// as their distance into the future, with every past value collapsed to
// 0: no later decision can tell two past values apart. The timestamps a
// retirement observer reads (allocation, issue and completion cycles of
// in-flight µops) and their sequence numbers encode exactly, so an
// observer armed after a jump sees the cycles per-cycle stepping would
// have produced.
//
// After a jump the scan-private scheduler bookkeeping (wake bounds,
// consumer registrations, port memos) is rebuilt exactly as Restore
// rebuilds it, so a jumped machine continues like a restored one —
// which snapshot_test.go and the parity tests pin as cycle-exact.

// periodicSeen is the size of the nomination table, a direct-mapped
// cache of recent samples: a colliding sample overwrites its slot, which
// only forgets a hint.
const periodicSeen = 1 << 10

// seenSlot is one nomination-table entry: a sample's hash and cycle.
type seenSlot struct{ hash, cycle uint64 }

// periodic is the detector state. None of it is serialized: it holds
// hints and proofs about the trajectory, never simulation state.
type periodic struct {
	// on arms sampling for the current RunPausable call.
	on bool
	// lead is the stream whose body boundaries trigger samples; next is
	// its instruction count at the next boundary. armGen holds each
	// stream's instruction count when sampling was armed.
	lead   *trace.Stream
	next   uint64
	armGen [NumContexts]uint64
	// quietUntil suppresses sampling after a jump up to the jump's bound:
	// the remainder is shorter than one period.
	quietUntil uint64

	// seen holds recent samples, indexed by the low bits of their hash;
	// allocated by the first sample, then reused for the machine's life.
	seen []seenSlot
	// enc is the scratch encoding of the current sample.
	enc []uint64

	// The candidate is a sample nominated as one period after an
	// earlier hash-equal sample, awaiting the exact check one period
	// later. Its counters, sequence number and stream positions give the
	// per-period deltas once proven.
	cand    []uint64
	candOK  bool
	candAt  uint64
	candP   uint64
	candCtr perfmon.Snapshot
	candSeq uint64
	candGen [NumContexts]uint64

	// The proven state recurs every period cycles with these deltas. It
	// stays valid across calls: any later sample that encodes equal to
	// it is on the same orbit and may jump at once.
	proven     []uint64
	provenOK   bool
	provenHash uint64
	period     uint64
	dCtr       [perfmon.NumEvents][perfmon.NumContexts]uint64
	dSeq       uint64
	dGen       [NumContexts]uint64

	// samples and jumps count encoded samples and jumps taken (tests).
	samples, jumps uint64
}

// periodicEligible reports whether the machine's future is a function of
// the encoded state alone: loop streams on every started context, no
// observer (they see each cycle), the fast-forward toggle on (so
// SetFastForward(false) still forces per-cycle stepping), an untouched
// memory hierarchy, no synchronisation cell and no context waiting.
func (m *Machine) periodicEligible() bool {
	if !m.ff || m.armed != 0 || len(m.cells) != 0 {
		return false
	}
	if m.hier.Thread(0).Accesses != 0 || m.hier.Thread(1).Accesses != 0 {
		return false
	}
	started := false
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started {
			continue
		}
		if t.stream.LoopLen() == 0 || t.done || t.spinning || t.halting || t.halted {
			return false
		}
		started = true
	}
	return started
}

// periodicArm prepares sampling at the start of a RunPausable call. A
// pending candidate is dropped: the caller may have changed the machine
// since it was taken.
func (m *Machine) periodicArm() {
	p := &m.per
	p.on, p.candOK, p.quietUntil = false, false, 0
	if !m.periodicEligible() {
		return
	}
	p.lead = nil
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started {
			continue
		}
		p.armGen[i] = t.stream.Generated
		if p.lead == nil || t.stream.LoopLen() > p.lead.LoopLen() {
			p.lead = t.stream
		}
	}
	p.next = p.nextBoundary()
	p.on = true
}

// slowerStream returns the stream of a context that has crossed at
// least two fewer bodies than the lead since sampling was armed, or nil.
// Its boundaries come further apart, and a steady state recurs at them
// just as at the lead's, so sampling there costs fewer samples per
// period; the two-body margin keeps contexts that run at the same rate
// from trading the lead back and forth.
func (m *Machine) slowerStream() *trace.Stream {
	p := &m.per
	bodies := func(i int) uint64 {
		s := m.threads[i].stream
		return (s.Generated - p.armGen[i]) / uint64(s.LoopLen())
	}
	lead, other := 0, 1
	if m.threads[1].stream == p.lead {
		lead, other = 1, 0
	}
	if !m.threads[other].started || bodies(other)+2 > bodies(lead) {
		return nil
	}
	return m.threads[other].stream
}

// nextBoundary returns the lead stream's instruction count at its next
// body boundary.
func (p *periodic) nextBoundary() uint64 {
	l := uint64(p.lead.LoopLen())
	return (p.lead.Generated/l + 1) * l
}

// periodicDue reports whether the lead stream has crossed a body
// boundary since the last sample.
func (m *Machine) periodicDue() bool {
	return m.per.on && m.per.lead.Generated >= m.per.next
}

// periodicSample samples the state at a body boundary of the lead
// stream, nominates or proves a period, and jumps whole periods up to
// bound (the first cycle the run loop must re-examine). It reports
// whether the clock advanced.
func (m *Machine) periodicSample(bound uint64) bool {
	p := &m.per
	if !m.periodicEligible() {
		p.on = false
		return false
	}
	if s := m.slowerStream(); s != nil {
		// Sample at the slower stream's boundaries from its next one on.
		p.lead = s
		p.next = p.nextBoundary()
		return false
	}
	p.next = p.nextBoundary()
	now := m.cycle
	if now < p.quietUntil {
		return false
	}
	p.enc = m.periodicEncode(p.enc[:0])
	h := hashWords(p.enc)
	p.samples++

	if p.provenOK && h == p.provenHash && slices.Equal(p.enc, p.proven) {
		return m.periodicJump(bound)
	}
	if p.candOK && now >= p.candAt+p.candP {
		p.candOK = false
		if now == p.candAt+p.candP && slices.Equal(p.enc, p.cand) {
			p.proven, p.cand = p.cand, p.proven
			p.provenOK, p.provenHash, p.period = true, h, p.candP
			cur, base := m.ctr.Snapshot().Raw(), p.candCtr.Raw()
			for ev := range cur {
				for tid := range cur[ev] {
					p.dCtr[ev][tid] = cur[ev][tid] - base[ev][tid]
				}
			}
			p.dSeq = m.seq - p.candSeq
			for i := range m.threads {
				if t := &m.threads[i]; t.started {
					p.dGen[i] = t.stream.Generated - p.candGen[i]
				}
			}
			return m.periodicJump(bound)
		}
	}
	if p.seen == nil {
		p.seen = make([]seenSlot, periodicSeen)
	}
	slot := &p.seen[h&(periodicSeen-1)]
	if t1 := slot.cycle; slot.hash == h && !p.candOK && t1 < now && 2*now-t1 < bound {
		// Nominate P = now - t1; the proof sample falls before bound.
		p.cand = append(p.cand[:0], p.enc...)
		p.candOK, p.candAt, p.candP = true, now, now-t1
		p.candCtr, p.candSeq = m.ctr.Snapshot(), m.seq
		for i := range m.threads {
			if t := &m.threads[i]; t.started {
				p.candGen[i] = t.stream.Generated
			}
		}
	}
	*slot = seenSlot{h, now}
	return false
}

// periodicJump advances the machine by the largest whole number of
// proven periods that stays below bound, reporting whether it moved.
func (m *Machine) periodicJump(bound uint64) bool {
	p := &m.per
	now := m.cycle
	if bound <= now || (bound-now)/p.period == 0 {
		return false
	}
	k := (bound - now) / p.period
	d := k * p.period
	shift := func(v *uint64) {
		if *v != 0 {
			*v += d
		}
	}
	m.cycle += d
	m.lastRetireCycle += d
	for u := range m.unitNextFree {
		shift(&m.unitNextFree[u])
	}
	ds := k * p.dSeq
	m.seq += ds
	for i := range m.threads {
		t := &m.threads[i]
		if !t.started {
			continue
		}
		for j := range t.rob.buf {
			u := &t.rob.buf[j]
			shift(&u.doneAt)
			shift(&u.readyAt)
			shift(&u.retryAt)
			shift(&u.allocAt)
			shift(&u.issueAt)
			if u.seq != 0 {
				u.seq += ds
			}
			// Consumer registrations are scan bookkeeping; Restore
			// starts them empty too.
			u.nCons, u.regBits = 0, 0
		}
		for j := range t.stqFree {
			shift(&t.stqFree[j])
		}
		shift(&t.allocStallUntil)
		shift(&t.wakeAt)
		t.stream.Skip(k * p.dGen[i])
	}
	for ev := range p.dCtr {
		for tid, n := range p.dCtr[ev] {
			if n != 0 {
				m.ctr.Add(perfmon.Event(ev), tid, k*n)
			}
		}
	}
	m.schedRebuild()
	p.jumps++
	p.candOK = false
	p.quietUntil = bound
	clear(p.seen)
	return true
}

// schedRebuild re-inserts the live scheduler entries in age order with
// wake bound 0, all due and none ready — the scheduler state Restore
// builds from a snapshot.
func (m *Machine) schedRebuild() {
	mask := uint64(len(m.schedRing) - 1)
	n := 0
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		if m.schedLive[slot>>6]&(1<<(slot&63)) != 0 {
			m.schedScratch[n] = m.schedRing[slot]
			n++
		}
	}
	m.schedReset()
	// At most the live bound is inserted, below the compaction
	// threshold, so schedInsert never reuses schedScratch underneath.
	for _, e := range m.schedScratch[:n] {
		m.schedInsert(m.resolve(e.ref), e.ref, e.class, 0)
	}
}

// periodicEncode appends the translation-invariant encoding of the
// machine state to enc (see the file comment).
func (m *Machine) periodicEncode(enc []uint64) []uint64 {
	now := m.cycle
	enc = append(enc, now%NumContexts, now-m.lastRetireCycle)
	for _, nf := range m.unitNextFree {
		enc = append(enc, ahead(nf, now))
	}
	for i := range m.threads {
		t := &m.threads[i]
		flags := b2u(t.started) | b2u(t.done)<<1 | b2u(t.spinning)<<2 |
			b2u(t.halting)<<3 | b2u(t.halted)<<4 | b2u(t.pendingValid)<<5
		if !t.started {
			enc = append(enc, flags)
			continue
		}
		enc = append(enc, flags, t.stream.Generated%uint64(t.stream.LoopLen()),
			uint64(t.rob.count), uint64(t.ldq), uint64(t.stq), uint64(t.schedCount),
			ahead(t.allocStallUntil, now), exact(t.wakeAt, now),
			uint64(t.loadRecPos&7), uint64(len(t.stqFree)))
		if t.pendingValid {
			enc = appendInstr(enc, t.pending, 0)
		}
		for _, at := range t.stqFree {
			enc = append(enc, ahead(at, now))
		}
		for _, lr := range t.inflightLoads {
			if c := m.refCode(lr.ref); c != 0 {
				enc = append(enc, c, lr.line)
			} else {
				enc = append(enc, 0)
			}
		}
		for r := 0; r < len(t.regPrev); r += 2 {
			w := m.refCode(t.regPrev[r])
			if r+1 < len(t.regPrev) {
				w |= m.refCode(t.regPrev[r+1]) << 32
			}
			enc = append(enc, w)
		}
		for j := 0; j < t.rob.count; j++ {
			u := &t.rob.buf[(t.rob.head+j)&t.rob.mask]
			st := b2u(u.issued) | b2u(u.cancelled)<<1 | b2u(u.spin)<<2 |
				uint64(u.port)<<8 | uint64(u.unit)<<16
			issueAt := uint64(0)
			if u.issued {
				issueAt = exact(u.issueAt, now)
			}
			enc = appendInstr(enc, &u.in, st)
			enc = append(enc,
				m.refCode(u.dep1)|m.refCode(u.dep2)<<32, m.refCode(u.depW),
				exact(u.doneAt, now), ahead(u.readyAt, now), ahead(u.retryAt, now),
				exact(u.allocAt, now), issueAt, m.seq-u.seq)
		}
	}
	mask := uint64(len(m.schedRing) - 1)
	var w uint64
	half := false
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		if m.schedLive[slot>>6]&(1<<(slot&63)) == 0 {
			continue
		}
		c := m.refCode(m.schedRing[slot].ref)
		if half {
			enc = append(enc, w|c<<32)
		} else {
			w = c
		}
		half = !half
	}
	if half {
		enc = append(enc, w)
	}
	return enc
}

// refCode encodes a µop reference relative to its ROB head: 0 when it
// is nil, stale or names a retired µop (the simulator treats all three
// as a satisfied dependence), else 1 + context<<16 + offset from head.
func (m *Machine) refCode(r uopRef) uint64 {
	if r.gen == 0 {
		return 0
	}
	rb := &m.threads[r.tid].rob
	if rb.buf[r.idx].gen != r.gen {
		return 0
	}
	off := (int(r.idx) - rb.head) & rb.mask
	if off >= rb.count {
		return 0
	}
	return 1 + uint64(r.tid)<<16 + uint64(off)
}

// appendInstr encodes an instruction: opcode and registers packed with
// the caller's status bits, plus the operand fields of memory and
// synchronisation operations when any is set.
func appendInstr(enc []uint64, in *isa.Instr, status uint64) []uint64 {
	ext := in.Addr != 0 || in.Cell != 0 || in.Val != 0 || in.Cmp != 0 || in.UsePause || in.Tag != 0
	enc = append(enc, uint64(in.Op)|uint64(in.Dst)<<8|uint64(in.Src1)<<16|uint64(in.Src2)<<24|
		b2u(ext)<<31|status<<32)
	if ext {
		enc = append(enc, in.Addr, uint64(in.Cell)|uint64(in.Cmp)<<32|b2u(in.UsePause)<<40,
			uint64(in.Val), uint64(in.Tag))
	}
	return enc
}

// ahead encodes a bound the simulator only compares against the current
// cycle: its distance into the future, 0 once reached or past.
func ahead(v, now uint64) uint64 {
	if v <= now {
		return 0
	}
	return v - now
}

// exact encodes an absolute cycle relative to now, keeping 0 ("unset")
// distinct from every real offset.
func exact(v, now uint64) uint64 {
	if v == 0 {
		return 0
	}
	return v - now + 1<<63
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hashWords is a four-lane multiplicative hash of an encoding; it only
// nominates periods, so collisions cost a failed proof, never a wrong
// jump.
func hashWords(ws []uint64) uint64 {
	const k = 0x9E3779B97F4A7C15
	h0, h1, h2, h3 := uint64(len(ws)), uint64(1), uint64(2), uint64(3)
	i := 0
	for ; i+3 < len(ws); i += 4 {
		h0 = (h0 + ws[i]) * k
		h1 = (h1 + ws[i+1]) * k
		h2 = (h2 + ws[i+2]) * k
		h3 = (h3 + ws[i+3]) * k
	}
	for ; i < len(ws); i++ {
		h0 = (h0 + ws[i]) * k
	}
	h := h0 ^ bits.RotateLeft64(h1, 16) ^ bits.RotateLeft64(h2, 32) ^ bits.RotateLeft64(h3, 48)
	h ^= h >> 33
	h *= k
	return h ^ h>>29
}
