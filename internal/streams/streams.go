// Package streams constructs the synthetic homogeneous instruction streams
// of Section 4 of the paper: basic arithmetic operations (add, sub, mul,
// div) and memory operations (load, store) on integer and floating-point
// scalars, each at a chosen degree of instruction-level parallelism.
//
// ILP is tuned exactly as the paper describes: the stream keeps its source
// and target register sets disjoint and cycles the destination over |T|
// registers, so a given target register is reused every |T| instructions —
// creating the WAW/RAW pressure that throttles a no-rename pipeline. The
// paper's three degrees are |T| = 1 (minimum), 3 (medium) and 6 (maximum).
//
// Memory streams walk a private per-thread vector sequentially with a
// 16-bit element stride, which on 64-byte lines yields the ≈3% cache miss
// rate quoted in the paper's Figure 2 discussion.
package streams

import (
	"fmt"
	"sync"

	"smtexplore/internal/isa"
	"smtexplore/internal/trace"
)

// Kind identifies one of the paper's instruction streams.
type Kind uint8

// Stream kinds. FAddMul is the paper's mixed stream: fadd and fmul
// inlined in circular alternation within one thread.
const (
	IAddS Kind = iota
	ISubS
	IMulS
	IDivS
	ILoadS
	IStoreS
	FAddS
	FSubS
	FMulS
	FDivS
	FLoadS
	FStoreS
	FAddMulS

	numKinds
)

// NumKinds is the number of stream kinds.
const NumKinds = int(numKinds)

var kindNames = [NumKinds]string{
	"iadd", "isub", "imul", "idiv", "iload", "istore",
	"fadd", "fsub", "fmul", "fdiv", "fload", "fstore", "fadd-mul",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is a defined stream kind.
func (k Kind) Valid() bool { return k < numKinds }

// IsMem reports whether the stream is a load/store stream.
func (k Kind) IsMem() bool {
	switch k {
	case ILoadS, IStoreS, FLoadS, FStoreS:
		return true
	}
	return false
}

// IsFP reports whether the stream operates on floating-point scalars.
func (k Kind) IsFP() bool { return k >= FAddS }

// All returns every stream kind.
func All() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// IntKinds returns the integer streams of Figure 2(b).
func IntKinds() []Kind { return []Kind{IAddS, ISubS, IMulS, IDivS, ILoadS, IStoreS} }

// FPKinds returns the floating-point streams of Figure 2(a).
func FPKinds() []Kind { return []Kind{FAddS, FSubS, FMulS, FDivS, FLoadS, FStoreS} }

// IntArith and FPArith return the pure arithmetic streams mixed in
// Figure 2(c).
func IntArith() []Kind { return []Kind{IAddS, ISubS, IMulS, IDivS} }
func FPArith() []Kind  { return []Kind{FAddS, FSubS, FMulS, FDivS} }

// ILP is the paper's instruction-level-parallelism degree: the number of
// distinct target registers |T| the stream cycles through.
type ILP int

// The paper's three ILP degrees.
const (
	MinILP ILP = 1
	MedILP ILP = 3
	MaxILP ILP = 6
)

// Levels returns the paper's ILP degrees in ascending order.
func Levels() []ILP { return []ILP{MinILP, MedILP, MaxILP} }

func (p ILP) String() string {
	switch p {
	case MinILP:
		return "minILP"
	case MedILP:
		return "medILP"
	case MaxILP:
		return "maxILP"
	}
	return fmt.Sprintf("ilp(%d)", int(p))
}

// Spec describes one stream instance.
type Spec struct {
	Kind Kind
	ILP  ILP
	// Base is the start of the stream's private vector (memory streams
	// only); co-executed streams must use disjoint bases, as the paper's
	// threads traverse private vectors.
	Base uint64
}

// VectorBytes is the size of a memory stream's private vector: larger than
// the 8 KB L1 so line-sequential walks miss there, comfortably inside the
// shared 512 KB L2 (even when two streams co-run), so misses refill from
// L2 as in the paper's ≈3%-miss characterisation.
const VectorBytes = 64 << 10

// elemStride is the memory-stream element size in bytes. On 64-byte lines
// a sequential 2-byte walk misses once per 32 accesses ≈ 3%, the rate the
// paper quotes.
const elemStride = 2

// unrollBody is the number of inlined instructions per generated block —
// the streams in the paper are constructed by repeatedly inlining the
// instruction, with no loop overhead.
const unrollBody = 64

// Build constructs the endless instruction stream described by s. Bound
// execution with a Machine cycle budget, mirroring the paper's fixed
// 10-second measurement runs.
func Build(s Spec) trace.Program {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	switch {
	case s.Kind == FAddMulS:
		return buildMixed(s, isa.FAdd, isa.FMul)
	case s.Kind.IsMem():
		return buildMem(s)
	default:
		return buildArith(s, arithOp(s.Kind))
	}
}

// Body returns one full period of the endless stream described by s: the
// instruction sequence after which the stream repeats exactly (the
// unrolled block for arithmetic streams, one whole private-vector walk
// for memory streams). Collecting the period once lets the simulator
// serve the stream from a slice instead of re-running the generator —
// see Open.
func Body(s Spec) []isa.Instr {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	period := uint64(unrollBody)
	if s.Kind.IsMem() {
		// The address pattern wraps after one vector walk.
		period = VectorBytes / elemStride
	}
	return trace.Collect(trace.Limit(Build(s), period))
}

// bodyCache memoises Body per spec, validated once as a loop body: the
// bodies are immutable (Stream serves them by value), so co-executed and
// repeated cells share one allocation — memory-stream periods are tens
// of thousands of instructions.
var bodyCache sync.Map // Spec → trace.LoopBody

// Open builds the endless instruction stream described by s as a
// slice-backed loop stream, the fast equivalent of
// trace.NewStream(Build(s)). Bodies are built, validated and cached per
// spec on first use and shared.
func Open(s Spec) *trace.Stream {
	if b, ok := bodyCache.Load(s); ok {
		return b.(trace.LoopBody).Stream()
	}
	b := trace.NewLoopBody(Body(s))
	bodyCache.Store(s, b)
	return b.Stream()
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if !s.Kind.Valid() {
		return fmt.Errorf("streams: invalid kind %d", uint8(s.Kind))
	}
	switch s.ILP {
	case MinILP, MedILP, MaxILP:
	default:
		return fmt.Errorf("streams: ILP must be one of 1, 3, 6; got %d", int(s.ILP))
	}
	return nil
}

func arithOp(k Kind) isa.Op {
	switch k {
	case IAddS:
		return isa.IAdd
	case ISubS:
		return isa.ISub
	case IMulS:
		return isa.IMul
	case IDivS:
		return isa.IDiv
	case FAddS:
		return isa.FAdd
	case FSubS:
		return isa.FSub
	case FMulS:
		return isa.FMul
	case FDivS:
		return isa.FDiv
	}
	panic(fmt.Sprintf("streams: %v is not an arithmetic stream", k))
}

// targets returns the |T| destination registers and two disjoint source
// registers for a register bank.
func regsFor(fp bool, ilp ILP) (tgt []isa.Reg, s1, s2 isa.Reg) {
	reg := isa.R
	if fp {
		reg = isa.F
	}
	tgt = make([]isa.Reg, ilp)
	for i := range tgt {
		tgt[i] = reg(i)
	}
	// Sources sit above the largest target set, keeping S and T disjoint
	// at every ILP level, exactly as in the paper's construction.
	return tgt, reg(8), reg(9)
}

func buildArith(s Spec, op isa.Op) trace.Program {
	tgt, s1, s2 := regsFor(s.Kind.IsFP(), s.ILP)
	return trace.Generate(func(e *trace.Emitter) {
		for !e.Stopped() {
			for i := 0; i < unrollBody; i++ {
				e.ALU(op, tgt[i%len(tgt)], s1, s2)
			}
		}
	})
}

func buildMixed(s Spec, opA, opB isa.Op) trace.Program {
	tgt, s1, s2 := regsFor(true, s.ILP)
	return trace.Generate(func(e *trace.Emitter) {
		for !e.Stopped() {
			for i := 0; i < unrollBody; i++ {
				op := opA
				if i%2 == 1 {
					op = opB
				}
				e.ALU(op, tgt[i%len(tgt)], s1, s2)
			}
		}
	})
}

func buildMem(s Spec) trace.Program {
	fp := s.Kind.IsFP()
	tgt, src, _ := regsFor(fp, s.ILP)
	isLoad := s.Kind == ILoadS || s.Kind == FLoadS
	return trace.Generate(func(e *trace.Emitter) {
		var off uint64
		for !e.Stopped() {
			for i := 0; i < unrollBody; i++ {
				addr := s.Base + off
				if isLoad {
					e.Load(tgt[i%len(tgt)], addr)
				} else {
					e.Store(src, addr)
				}
				off += elemStride
				if off >= VectorBytes {
					off = 0
				}
			}
		}
	})
}

// DisjointBase returns a private vector base for co-executed stream slot
// i, spaced so two streams' vectors never share cache lines.
func DisjointBase(i int) uint64 {
	return 0x1000_0000 + uint64(i)*(VectorBytes+4096)
}
