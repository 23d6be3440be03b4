package smt

import "testing"

// TestResolveStaleRef: a reference resolves to its µop until the slot is
// reused, and never afterwards — in either context's reorder ring,
// across a generation wrap, and never to the same slot of the other
// context.
func TestResolveStaleRef(t *testing.T) {
	m := New(testConfig())
	defer m.Close()
	for tid := 0; tid < NumContexts; tid++ {
		// A never-used slot has generation 0, as the nil reference does.
		if got := m.resolve(uopRef{tid: int8(tid)}); got != nil {
			t.Fatalf("context %d: the nil reference resolves to a fresh slot", tid)
		}
	}
	for tid := 0; tid < NumContexts; tid++ {
		r := &m.threads[tid].rob
		push := func() (*uop, uopRef) {
			u, ref, ok := r.push()
			if !ok {
				t.Fatalf("context %d: push on a ring of %d failed", tid, r.count)
			}
			ref.tid = int8(tid)
			return u, ref
		}
		// Cycle the ring once so the next push lands on slot 0 again.
		cycle := func() {
			for i := 0; i < len(r.buf); i++ {
				push()
				r.pop()
			}
		}

		u, ref := push()
		if got := m.resolve(ref); got != u {
			t.Fatalf("context %d: fresh reference resolves to %p, want %p", tid, got, u)
		}
		other := ref
		other.tid = int8(1 - tid)
		if got := m.resolve(other); got == u {
			t.Fatalf("context %d: reference resolved through the other context's ring", tid)
		}
		r.pop()
		cycle()
		if got := m.resolve(ref); got != nil {
			t.Fatalf("context %d: reference resolves after its slot was reused", tid)
		}

		// Wrap the slot's generation: the last generation before the
		// wrap goes stale, and the wrap skips generation 0, the nil
		// reference.
		r.buf[r.head].gen = ^uint32(0) - 1
		_, last := push()
		if last.gen != ^uint32(0) {
			t.Fatalf("context %d: generation %d, want %d", tid, last.gen, ^uint32(0))
		}
		r.pop()
		cycle()
		if got := m.resolve(last); got != nil {
			t.Fatalf("context %d: reference resolves across the generation wrap", tid)
		}
		if r.buf[last.idx].gen != 1 {
			t.Fatalf("context %d: wrapped generation %d, want 1", tid, r.buf[last.idx].gen)
		}
		for r.count > 0 {
			r.pop()
		}
	}
}
