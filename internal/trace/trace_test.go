package trace

import (
	"testing"
	"testing/quick"

	"smtexplore/internal/isa"
)

func threeAdds() Program {
	return Generate(func(e *Emitter) {
		e.ALU(isa.FAdd, isa.F(0), isa.F(1), isa.F(2))
		e.ALU(isa.FAdd, isa.F(1), isa.F(2), isa.F(3))
		e.ALU(isa.FAdd, isa.F(2), isa.F(3), isa.F(4))
	})
}

func TestStreamPullsAll(t *testing.T) {
	s := NewStream(threeAdds())
	defer s.Close()
	var n int
	for {
		in, ok := s.Next()
		if !ok {
			break
		}
		if in.Op != isa.FAdd {
			t.Fatalf("unexpected op %v", in.Op)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("pulled %d instructions, want 3", n)
	}
	if !s.Done() {
		t.Error("stream should report done")
	}
	if s.Generated != 3 {
		t.Errorf("Generated = %d, want 3", s.Generated)
	}
	// Next after exhaustion stays ok=false.
	if _, ok := s.Next(); ok {
		t.Error("Next after exhaustion returned ok")
	}
}

func TestStreamCloseEarly(t *testing.T) {
	s := NewStream(Forever(threeAdds()))
	if _, ok := s.Next(); !ok {
		t.Fatal("expected an instruction")
	}
	s.Close()
	if _, ok := s.Next(); ok {
		t.Error("Next after Close returned ok")
	}
	s.Close() // double close must be safe
}

func TestEmitterValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("emitting an invalid instruction did not panic")
		}
	}()
	p := Generate(func(e *Emitter) {
		e.Emit(isa.Instr{Op: isa.Load}) // load without destination
	})
	Count(p)
}

func TestConcatOrderAndCount(t *testing.T) {
	p := Concat(threeAdds(), Generate(func(e *Emitter) { e.Nop() }))
	got := Collect(p)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	if got[3].Op != isa.Nop {
		t.Errorf("last op = %v, want nop", got[3].Op)
	}
}

func TestConcatStopsEarly(t *testing.T) {
	p := Concat(Forever(threeAdds()), threeAdds())
	got := Collect(Limit(p, 5))
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
}

func TestRepeat(t *testing.T) {
	if n := Count(Repeat(threeAdds(), 4)); n != 12 {
		t.Fatalf("Repeat count = %d, want 12", n)
	}
	if n := Count(Repeat(threeAdds(), 0)); n != 0 {
		t.Fatalf("Repeat(0) count = %d, want 0", n)
	}
}

func TestRepeatNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Repeat(-1) did not panic")
		}
	}()
	Repeat(threeAdds(), -1)
}

func TestForeverIsUnbounded(t *testing.T) {
	const n = 10_000
	if got := Count(Limit(Forever(threeAdds()), n)); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

func TestLimitZero(t *testing.T) {
	if n := Count(Limit(threeAdds(), 0)); n != 0 {
		t.Fatalf("Limit(0) count = %d", n)
	}
}

func TestEmptyProgram(t *testing.T) {
	if n := Count(Empty()); n != 0 {
		t.Fatalf("Empty count = %d", n)
	}
}

func TestMix(t *testing.T) {
	p := Generate(func(e *Emitter) {
		e.ALU(isa.FAdd, isa.F(0), isa.F(1), isa.F(2))
		e.ALU(isa.FMul, isa.F(1), isa.F(2), isa.F(3))
		e.Load(isa.F(2), 64)
		e.Load(isa.F(3), 128)
		e.Store(isa.F(0), 192)
	})
	m := Mix(p)
	want := map[isa.Op]uint64{isa.FAdd: 1, isa.FMul: 1, isa.Load: 2, isa.Store: 1}
	for op, n := range want {
		if m[op] != n {
			t.Errorf("mix[%v] = %d, want %d", op, m[op], n)
		}
	}
	if len(m) != len(want) {
		t.Errorf("mix has %d classes, want %d: %v", len(m), len(want), m)
	}
}

func TestEmitterStoppedShortCircuits(t *testing.T) {
	var emitted uint64
	p := Generate(func(e *Emitter) {
		for i := 0; i < 100 && !e.Stopped(); i++ {
			e.Nop()
		}
		emitted = e.Count
	})
	got := Collect(Limit(p, 5))
	if len(got) != 5 {
		t.Fatalf("collected %d, want 5", len(got))
	}
	// Emitter should have noticed the stop after at most one extra emit.
	if emitted > 6 {
		t.Errorf("generator kept emitting after stop: %d", emitted)
	}
}

// Property: Limit(p, n) yields exactly min(n, Count(p)) instructions and is
// a prefix of p.
func TestLimitPrefix_Property(t *testing.T) {
	f := func(lenSeed, limSeed uint16) bool {
		total := int(lenSeed % 200)
		lim := uint64(limSeed % 250)
		p := Generate(func(e *Emitter) {
			for i := 0; i < total; i++ {
				e.Load(isa.F(i%4), uint64(i)*64)
			}
		})
		full := Collect(p)
		got := Collect(Limit(p, lim))
		want := int(lim)
		if total < want {
			want = total
		}
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Count(Repeat(p, n)) == n * Count(p).
func TestRepeatCount_Property(t *testing.T) {
	f := func(lenSeed, repSeed uint8) bool {
		total := int(lenSeed % 20)
		reps := int(repSeed % 10)
		p := Generate(func(e *Emitter) {
			for i := 0; i < total; i++ {
				e.Nop()
			}
		})
		return Count(Repeat(p, reps)) == uint64(total*reps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLoopBody: a body is validated once, when it is made — an invalid
// one panics there — and every stream opened over it cycles through it.
func TestLoopBody(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewLoopBody accepted a load without a destination")
			}
		}()
		NewLoopBody([]isa.Instr{{Op: isa.Nop}, {Op: isa.Load}})
	}()
	body := NewLoopBody([]isa.Instr{{Op: isa.Nop}, {Op: isa.Branch}, {Op: isa.Pause}})
	for k := 0; k < 2; k++ {
		s := body.Stream()
		for i := 0; i < 7; i++ {
			in, ok := s.Next()
			if want := body.ins[i%3]; !ok || in != want {
				t.Fatalf("stream %d, instruction %d: %v, want %v", k, i, in, want)
			}
		}
		if s.LoopLen() != 3 {
			t.Errorf("LoopLen = %d, want 3", s.LoopLen())
		}
	}
}

// TestNextRefStable: NextRef serves a generator's instructions in order
// across batch refills, and the call that finds the end leaves the last
// instruction behind its pointer unchanged.
func TestNextRefStable(t *testing.T) {
	const n = 3*streamBatch + 5
	p := Generate(func(e *Emitter) {
		for i := 0; i < n; i++ {
			e.Load(isa.R(1), uint64(i)*8)
		}
	})
	s := NewStream(p)
	defer s.Close()
	var last *isa.Instr
	for i := 0; ; i++ {
		in, ok := s.NextRef()
		if !ok {
			if i != n {
				t.Fatalf("stream ended after %d instructions, want %d", i, n)
			}
			if last.Addr != uint64(n-1)*8 {
				t.Fatalf("last instruction changed to %v at the end", *last)
			}
			return
		}
		if in.Addr != uint64(i)*8 {
			t.Fatalf("instruction %d = %v", i, *in)
		}
		last = in
	}
}
