package smt

import (
	"smtexplore/internal/isa"
)

// uop is one in-flight micro-operation. µops live in a per-context reorder
// ring; they are referenced across structures by uopRef with generation
// checks, so retirement can recycle slots without dangling dependences.
// Field order is deliberate: the scalars the issue scan and retire loop
// touch on every examination (generation check, issued/cancelled state,
// timing memos, the opcode inside in) pack into the leading cache line;
// the colder dataflow edges, attribution timestamps and wakeup consumer
// list follow.
type uop struct {
	gen uint32 // slot generation; bumped on reuse
	// schedSlot is the physical scheduler-ring slot of this µop's entry,
	// maintained by schedInsert and schedCompact so prods can find it.
	schedSlot uint32

	doneAt uint64
	// readyAt memoises the earliest cycle at which all captured
	// dependences can be complete, discovered lazily as producers issue;
	// it lets the scheduler scan skip repeated dependence walks.
	readyAt uint64
	// retryAt delays re-issue after an MSHR-full rejection.
	retryAt uint64

	issued    bool
	cancelled bool // flushed spin µop: dependents treat as complete
	// spin marks µops injected by spin-wait expansion; they are counted
	// separately and flushed when the wait completes.
	spin  bool
	nCons uint8
	// regBits records which of this µop's own dependences are registered
	// in their producer's cons list (1=dep1, 2=dep2, 4=depW).
	regBits uint8
	port    isa.Port
	unit    isa.Unit

	in  isa.Instr
	seq uint64 // global allocation order, drives oldest-first issue

	allocAt uint64
	issueAt uint64

	// Dataflow edges captured at allocation: latest older writers of the
	// two sources (RAW) and of the destination (WAW). The machine has no
	// rename stage — the paper's ILP knob is architectural-register
	// pressure, which this models directly.
	dep1, dep2, depW uopRef

	// Wakeup bookkeeping (never serialized — Restore re-registers from
	// scratch because every restored scheduler entry re-examines).
	//
	// cons holds scheduler-sleeping consumers of this µop, registered
	// while it is unissued; dispatch prods each one with the completion
	// time so dependence chains need no polling. A full list simply
	// leaves the extra consumers polling — a correctness-neutral
	// slowdown.
	cons [4]uopRef
}

// uopRef is a generation-checked reference to a ROB slot. The zero value
// is "no dependence".
type uopRef struct {
	gen uint32 // 0 = nil reference
	idx int16
	tid int8
}

// rob is a fixed-capacity in-order ring of µops for one context. The
// backing array is rounded up to a power of two so ring indexing is a
// mask, not a divide; occupancy limits are enforced by the allocator
// against the configured capacity, never against len(buf).
type rob struct {
	buf   []uop
	mask  int // len(buf) - 1
	head  int
	count int
}

func newROB(capacity int) rob {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return rob{buf: make([]uop, n), mask: n - 1}
}

// push allocates the next slot and returns it with its reference. The
// caller must have checked occupancy against the configured limit.
func (r *rob) push() (*uop, uopRef, bool) {
	if r.count == len(r.buf) {
		return nil, uopRef{}, false
	}
	idx := (r.head + r.count) & r.mask
	r.count++
	u := &r.buf[idx]
	gen := u.gen + 1
	if gen == 0 { // generation 0 is the nil reference; skip it on wrap
		gen = 1
	}
	// Targeted reset instead of *u = uop{}: the cons array is only read
	// up to nCons, so clearing nCons alone retires its stale entries,
	// and the caller overwrites in/seq/spin/allocAt/issueAt immediately.
	u.gen = gen
	u.issued = false
	u.cancelled = false
	u.doneAt = 0
	u.port = 0
	u.unit = 0
	u.dep1 = uopRef{}
	u.dep2 = uopRef{}
	u.depW = uopRef{}
	u.retryAt = 0
	u.readyAt = 0
	u.nCons = 0
	u.regBits = 0
	u.schedSlot = 0
	return u, uopRef{gen: gen, idx: int16(idx)}, true
}

// peek returns the oldest µop, if any.
func (r *rob) peek() *uop {
	if r.count == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// pop retires the oldest µop.
func (r *rob) pop() {
	if r.count == 0 {
		panic("smt: pop from empty ROB")
	}
	r.head = (r.head + 1) & r.mask
	r.count--
}

// at resolves a slot index to its µop.
func (r *rob) at(idx int16) *uop { return &r.buf[idx] }
