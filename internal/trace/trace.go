// Package trace provides the workload representation consumed by the SMT
// simulator: a Program is a lazily evaluated µop sequence for one hardware
// context, written as ordinary sequential Go code against an Emitter.
//
// Programs are *address-faithful generators*: they produce the exact µop
// classes, register dependences and byte addresses a kernel would execute,
// without interpreting data values. Data-dependent control flow — which in
// the paper's loop-based scientific kernels occurs only at synchronisation
// points — is expressed through the declarative SpinWait/HaltWait/FlagStore
// operations interpreted by the simulator, so a Program's instruction
// sequence is fixed and the simulation fully deterministic.
package trace

import (
	"fmt"
	"iter"

	"smtexplore/internal/isa"
)

// Program is a lazily generated instruction stream for one hardware
// context. The simulator pulls µops one at a time; generation cost is
// incurred on demand so arbitrarily long workloads run in constant memory.
type Program = iter.Seq[isa.Instr]

// streamBatch is how many instructions a Stream pulls from its generator
// per coroutine switch. iter.Pull costs one goroutine round trip per
// yield, which profiles as ~15% of simulation time when paid per
// instruction; batching amortises it to one switch per streamBatch µops
// while keeping generation lazy at batch granularity.
const streamBatch = 256

// Stream adapts a Program to the pull interface used by the simulator
// front end. Close must be called when the stream is abandoned before
// exhaustion (e.g. a bounded measurement window).
type Stream struct {
	next func() ([]isa.Instr, bool)
	stop func()

	// buf is the current batch on loan from the generator goroutine; the
	// generator is suspended until the next pull, so reading it here, and
	// lending pointers into it until the next pull (NextRef), is
	// race-free even though the backing array is reused across batches.
	buf []isa.Instr
	pos int

	// loop, when non-nil, is an endless cyclic program served straight
	// from the slice (LoopBody.Stream): no generator goroutine, no
	// per-batch hand-off — Next is an array index and a wrap test.
	// buf/pos double as the cursor (buf == loop).
	loop []isa.Instr

	// Generated counts instructions pulled so far.
	Generated uint64
	done      bool
}

// NewStream starts pulling from p.
func NewStream(p Program) *Stream {
	next, stop := iter.Pull(batches(p, streamBatch))
	return &Stream{next: next, stop: stop}
}

// LoopBody is one period of an endless cyclic program, validated once
// when it is made. Any number of loop streams may be opened over it and
// share it: Stream serves the instructions straight from the slice. A
// loop stream is observationally identical to NewStream(Forever(<emit
// body>)) but removes the generator goroutine and the per-instruction
// emit/validate path from the simulation loop — the workload generators
// of this repository are all periodic, so their streams collapse to one
// precomputed period.
type LoopBody struct{ ins []isa.Instr }

// NewLoopBody validates body, panicking on an empty body or an invalid
// instruction. The body must not be mutated afterwards.
func NewLoopBody(body []isa.Instr) LoopBody {
	if len(body) == 0 {
		panic("trace: NewLoopBody with empty body")
	}
	for _, in := range body {
		if err := in.Validate(); err != nil {
			panic(fmt.Sprintf("trace: invalid loop-body instruction: %v", err))
		}
	}
	return LoopBody{ins: body}
}

// Stream opens an endless loop stream over the body.
func (b LoopBody) Stream() *Stream {
	return &Stream{loop: b.ins, buf: b.ins}
}

// batches regroups p into slices of at most n instructions, reusing one
// backing buffer. The buffer hand-off is safe under iter.Pull because the
// generator only resumes — and overwrites the buffer — after the consumer
// asks for the next batch.
func batches(p Program, n int) iter.Seq[[]isa.Instr] {
	return func(yield func([]isa.Instr) bool) {
		buf := make([]isa.Instr, 0, n)
		stopped := false
		p(func(in isa.Instr) bool {
			buf = append(buf, in)
			if len(buf) == n {
				if !yield(buf) {
					stopped = true
					return false
				}
				buf = buf[:0]
			}
			return true
		})
		if !stopped && len(buf) > 0 {
			yield(buf)
		}
	}
}

// Next returns the next instruction, or ok=false at end of program.
func (s *Stream) Next() (isa.Instr, bool) {
	in, ok := s.NextRef()
	if !ok {
		return isa.Instr{}, false
	}
	return *in, true
}

// NextRef is Next without the copy: it returns a pointer to the next
// instruction inside the stream's buffer. The instruction behind the
// pointer stays unchanged until the following call to NextRef, Next or
// Skip returns another instruction: a generator refills the buffer only
// when it yields more, and a loop body is never written.
func (s *Stream) NextRef() (*isa.Instr, bool) {
	if s.pos >= len(s.buf) {
		if s.loop != nil && !s.done {
			s.pos = 0
		} else {
			if s.done {
				return nil, false
			}
			b, ok := s.next()
			if !ok {
				s.done = true
				return nil, false
			}
			s.buf, s.pos = b, 0
		}
	}
	in := &s.buf[s.pos]
	s.pos++
	s.Generated++
	return in, true
}

// Skip advances the stream past n instructions, as if Next had been
// called n times discarding the results (the snapshot-restore
// fast-forward). Loop streams jump by modular arithmetic; generated
// streams replay. It reports how many instructions were actually skipped
// (short only when a finite program ends).
func (s *Stream) Skip(n uint64) uint64 {
	if s.loop != nil && !s.done {
		s.pos = int((uint64(s.pos) + n) % uint64(len(s.loop)))
		s.Generated += n
		return n
	}
	for k := uint64(0); k < n; k++ {
		if _, ok := s.Next(); !ok {
			return k
		}
	}
	return n
}

// Done reports whether the program is exhausted.
func (s *Stream) Done() bool { return s.done }

// LoopLen returns the body length of a live loop stream — the number
// of instructions after which it repeats exactly — and 0 for generated
// or closed streams.
func (s *Stream) LoopLen() int {
	if s.loop == nil || s.done {
		return 0
	}
	return len(s.loop)
}

// Close releases the generator. Safe to call multiple times.
func (s *Stream) Close() {
	s.done = true
	s.buf, s.pos, s.loop = nil, 0, nil
	if s.stop != nil {
		s.stop()
		s.stop = nil
	}
}

// Emitter is the DSL handed to workload generator functions. All Emit*
// methods validate the instruction in debug builds of a program (always —
// validation is cheap relative to pipeline simulation) and panic with a
// descriptive message on generator bugs, which tests surface immediately.
type Emitter struct {
	yield   func(isa.Instr) bool
	stopped bool
	// Count is the number of instructions emitted through this Emitter.
	Count uint64
}

// Generate turns a generator function into a Program.
func Generate(fn func(e *Emitter)) Program {
	return func(yield func(isa.Instr) bool) {
		e := &Emitter{yield: yield}
		fn(e)
	}
}

// Stopped reports whether the consumer stopped pulling; generator loops
// should return promptly once true (Emit keeps discarding after stop, so
// correctness does not depend on it, but wasted generation does).
func (e *Emitter) Stopped() bool { return e.stopped }

// Emit yields one instruction.
func (e *Emitter) Emit(in isa.Instr) {
	if err := in.Validate(); err != nil {
		panic(fmt.Sprintf("trace: emitted invalid instruction: %v", err))
	}
	if e.stopped {
		return
	}
	e.Count++
	if !e.yield(in) {
		e.stopped = true
	}
}

// EmitAll yields a sequence of instructions in order.
func (e *Emitter) EmitAll(ins ...isa.Instr) {
	for _, in := range ins {
		e.Emit(in)
	}
}

// ALU emits a register-to-register arithmetic µop.
func (e *Emitter) ALU(op isa.Op, dst, src1, src2 isa.Reg) {
	e.Emit(isa.ALU(op, dst, src1, src2))
}

// Load emits a load of addr into dst.
func (e *Emitter) Load(dst isa.Reg, addr uint64) { e.Emit(isa.Ld(dst, addr)) }

// TaggedLoad emits a load carrying a static-site tag for delinquent-load
// profiling.
func (e *Emitter) TaggedLoad(dst isa.Reg, addr uint64, tag isa.Tag) {
	e.Emit(isa.TaggedLd(dst, addr, tag))
}

// Store emits a store of src to addr.
func (e *Emitter) Store(src isa.Reg, addr uint64) { e.Emit(isa.St(src, addr)) }

// Branch emits a loop-closing branch µop.
func (e *Emitter) Branch() { e.Emit(isa.Instr{Op: isa.Branch}) }

// Nop emits a no-op.
func (e *Emitter) Nop() { e.Emit(isa.Instr{Op: isa.Nop}) }

// Pause emits the spin-wait hint.
func (e *Emitter) Pause() { e.Emit(isa.Instr{Op: isa.Pause}) }

// Spin emits a pause-augmented spin wait on cell.
func (e *Emitter) Spin(cell isa.Cell, cmp isa.CmpKind, val int64) {
	e.Emit(isa.Spin(cell, cmp, val))
}

// RawSpin emits a spin wait without the pause hint.
func (e *Emitter) RawSpin(cell isa.Cell, cmp isa.CmpKind, val int64) {
	e.Emit(isa.RawSpin(cell, cmp, val))
}

// HaltUntil emits a halt-based wait on cell.
func (e *Emitter) HaltUntil(cell isa.Cell, cmp isa.CmpKind, val int64) {
	e.Emit(isa.Halt(cell, cmp, val))
}

// SetFlag emits a FlagStore of val to cell backed by address addr.
func (e *Emitter) SetFlag(cell isa.Cell, val int64, addr uint64) {
	e.Emit(isa.Flag(cell, val, addr))
}

// Combinators.

// Empty is the zero-instruction program.
func Empty() Program { return func(func(isa.Instr) bool) {} }

// Concat runs programs back to back on the same context.
func Concat(ps ...Program) Program {
	return func(yield func(isa.Instr) bool) {
		for _, p := range ps {
			stopped := false
			p(func(in isa.Instr) bool {
				if !yield(in) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return
			}
		}
	}
}

// Repeat replays p n times. p must be a pure generator (replayable), which
// all workload generators in this repository are.
func Repeat(p Program, n int) Program {
	if n < 0 {
		panic("trace: Repeat with negative count")
	}
	ps := make([]Program, n)
	for i := range ps {
		ps[i] = p
	}
	return Concat(ps...)
}

// Forever replays p endlessly; callers bound execution with a measurement
// window (cycle or instruction budget), as the paper does with its 10 s
// stream runs.
func Forever(p Program) Program {
	return func(yield func(isa.Instr) bool) {
		for {
			stopped := false
			p(func(in isa.Instr) bool {
				if !yield(in) {
					stopped = true
					return false
				}
				return true
			})
			if stopped {
				return
			}
		}
	}
}

// Limit truncates p to at most n instructions.
func Limit(p Program, n uint64) Program {
	return func(yield func(isa.Instr) bool) {
		var count uint64
		p(func(in isa.Instr) bool {
			if count >= n {
				return false
			}
			count++
			return yield(in)
		})
	}
}

// Count fully evaluates p and returns its instruction count. Intended for
// tests and profiling of finite programs.
func Count(p Program) uint64 {
	var n uint64
	p(func(isa.Instr) bool { n++; return true })
	return n
}

// Collect fully evaluates p into a slice. Intended for tests on small
// programs.
func Collect(p Program) []isa.Instr {
	var out []isa.Instr
	p(func(in isa.Instr) bool { out = append(out, in); return true })
	return out
}

// Mix counts instructions of p per op class. Intended for tests validating
// generator instruction mixes against Table 1 targets.
func Mix(p Program) map[isa.Op]uint64 {
	m := make(map[isa.Op]uint64)
	p(func(in isa.Instr) bool { m[in.Op]++; return true })
	return m
}
