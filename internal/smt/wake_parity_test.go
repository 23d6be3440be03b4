package smt

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/bt"
	"smtexplore/internal/kernels/cg"
	"smtexplore/internal/kernels/lu"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/mem"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/streams"
	"smtexplore/internal/trace"
)

// refStep mirrors Step with refIssue in place of issue.
func refStep(m *Machine) (bounded bool) {
	m.housekeep()
	m.limROB = m.limit(m.cfg.ROB)
	m.limSched = m.limit(m.cfg.SchedWindow)
	m.limLDQ = m.limit(m.cfg.LoadQ)
	m.limSTQ = m.limit(m.cfg.StoreQ)
	m.retire()
	bounded = refIssue(m)
	m.allocate()
	m.account()
	if m.armed&armCycle != 0 {
		m.onCycle()
	}
	m.cycle++
	return bounded
}

// refIssue is the plain per-slot select the issue stage must reproduce:
// every live entry, oldest first, examined afresh each cycle — no wake
// bounds, no cached readiness, no ready sets — until IssueWidth µops
// have issued or 64 entries have been retained. It reports whether the
// 64-entry bound stopped the scan. The due, ready and wheel bookkeeping
// that allocation and prods keep on this machine is never read.
func refIssue(m *Machine) (bounded bool) {
	now := m.cycle
	var portBudget [isa.NumPorts]int
	for p := 1; p < isa.NumPorts; p++ {
		portBudget[p] = 2
	}
	issued, kept := 0, 0
	var issuedBy [NumContexts]uint64
	mask := uint64(len(m.schedRing) - 1)
	for pos := m.schedHead; pos < m.schedTail; pos++ {
		slot := pos & mask
		w, bit := slot>>6, uint64(1)<<(slot&63)
		if m.schedLive[w]&bit == 0 {
			continue
		}
		if issued >= m.cfg.IssueWidth {
			break
		}
		if kept >= 64 {
			bounded = true
			break
		}
		e := &m.schedRing[slot]
		u := m.resolve(e.ref)
		if u == nil || u.cancelled || u.issued {
			m.schedLive[w] &^= bit
			m.threads[e.ref.tid].schedCount--
			continue
		}
		if u.retryAt > now {
			kept++
			continue
		}
		if ready, _ := m.uopReady(u, e.ref, now); !ready {
			kept++
			continue
		}
		port, unit, cost, ok := m.pickPort(opClass[u.in.Op], portBudget[:], now)
		if !ok {
			kept++
			continue
		}
		portBudget[port] -= cost
		issued++
		if !m.execute(u, e.ref, port, unit, now) {
			kept++
			continue
		}
		issuedBy[e.ref.tid]++
		m.schedLive[w] &^= bit
		m.threads[e.ref.tid].schedCount--
		if u.nCons != 0 {
			m.prodConsumers(u)
		}
	}
	m.issueDone(issuedBy)
	return bounded
}

// parityCase is one lockstep workload: mk builds a loaded machine.
type parityCase struct {
	name string
	mk   func(testing.TB) *Machine
	// bounded requires the reference to hit the 64-entry scan bound at
	// least once, so the case really exercises it.
	bounded bool
}

// programmer is what the lockstep cases and kernel benchmarks need of a
// kernel.
type programmer interface {
	Programs(kernels.Mode) ([2]trace.Program, error)
}

// kernelConfig is the machine the experiments layer runs kernel cells on
// (experiments.KernelMachineConfig): the default core with the scaled
// 32 KB L2.
func kernelConfig() Config {
	cfg := DefaultConfig()
	cfg.Mem.L2 = mem.CacheConfig{Size: 32 << 10, LineSize: 64, Assoc: 8, Latency: 18}
	return cfg
}

// loadKernel builds a kernel and loads the programs it makes for mode.
func loadKernel(tb testing.TB, m *Machine, build func() (programmer, error), mode kernels.Mode) {
	tb.Helper()
	k, err := build()
	if err != nil {
		tb.Fatal(err)
	}
	progs, err := k.Programs(mode)
	if err != nil {
		tb.Fatal(err)
	}
	m.LoadProgram(0, progs[0])
	if progs[1] != nil {
		m.LoadProgram(1, progs[1])
	}
}

// Kernel instances of the sim-kernels block.
var (
	mm16 = func() (programmer, error) { return mm.New(mm.DefaultConfig(16)) }
	lu16 = func() (programmer, error) { return lu.New(lu.DefaultConfig(16)) }
	lu32 = func() (programmer, error) { return lu.New(lu.DefaultConfig(32)) }
	cg24 = func() (programmer, error) {
		c := cg.DefaultConfig()
		c.N = 24
		return cg.New(c)
	}
	bt2 = func() (programmer, error) {
		c := bt.DefaultConfig()
		c.G = 2
		return bt.New(c)
	}
	bt3 = func() (programmer, error) {
		c := bt.DefaultConfig()
		c.G = 3
		return bt.New(c)
	}
)

// kernelCase is a lockstep case running a kernel cell on cfg.
func kernelCase(name string, cfg func() Config, build func() (programmer, error), mode kernels.Mode) parityCase {
	return parityCase{name: name, mk: func(tb testing.TB) *Machine {
		m := New(cfg())
		loadKernel(tb, m, build, mode)
		return m
	}}
}

// TestWakePruningParity locksteps two machines — one stepped by Step,
// whose select visits only due and ready entries, one by refStep, which
// examines every scheduler entry every cycle — and requires identical
// occupancy and counters at every cycle, and consistent select sets on
// the first (checkSchedSets). The select's pruning is a pure
// scan optimisation; any divergence is a timing bug. The cases are
// kernel cells (mm N=16 tlp-pfetch-work, and lu, cg and bt TLP cells of
// the sim-kernels block), a memory stream pair, loads replaying against
// two MSHRs, the golden workloads (spin-exit flush, halt handshake), and
// mm under NoStaticPartition, where up to 128 entries are live and the
// 64-entry scan bound binds. -short and race builds step each case for
// at most 20 000 cycles.
func TestWakePruningParity(t *testing.T) {
	noPartition := func() Config {
		cfg := kernelConfig()
		cfg.NoStaticPartition = true
		return cfg
	}
	bounded := kernelCase("mm-16-tlp-fine-nopartition", noPartition, mm16, kernels.TLPFine)
	bounded.bounded = true
	cases := []parityCase{
		kernelCase("mm-16-tlp-pfetch-work", DefaultConfig, mm16, kernels.TLPPfetchWork),
		kernelCase("lu-16-tlp-pfetch", kernelConfig, lu16, kernels.TLPPfetch),
		kernelCase("cg-24-tlp-coarse", kernelConfig, cg24, kernels.TLPCoarse),
		kernelCase("bt-2-tlp-coarse", kernelConfig, bt2, kernels.TLPCoarse),
		{name: "iload+fstore", mk: func(testing.TB) *Machine {
			m := New(DefaultConfig())
			streamCell{{Kind: streams.ILoadS, ILP: streams.MaxILP}, {Kind: streams.FStoreS, ILP: streams.MaxILP}}.load(m)
			return m
		}},
		{name: "miss-stream-2-mshrs", mk: func(testing.TB) *Machine {
			// Six independent misses in flight against two MSHRs:
			// loads are rejected and replay.
			cfg := testConfig()
			cfg.Mem.MSHRs = 2
			m := New(cfg)
			m.LoadProgram(0, trace.Generate(func(e *trace.Emitter) {
				for i := 0; i < 3000; i++ {
					e.Load(isa.F(i%6), uint64(i)*192+1<<24)
				}
			}))
			return m
		}},
		bounded,
	}
	// The golden workloads add MSHR-full load replays (miss-stream), a
	// spin-exit flush and a halt handshake.
	for name, mk := range goldenWorkloads() {
		cases = append(cases, parityCase{name: "golden-" + name, mk: func(testing.TB) *Machine { return mk() }})
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].name < cases[j].name })
	maxCycles := 200_000
	if testing.Short() || raceBuild {
		maxCycles = 20_000
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(t), tc.mk(t)
			defer a.Close()
			defer b.Close()
			hits := 0
			for c := 0; c < maxCycles && !(a.Done() && b.Done()); c++ {
				a.Step()
				if err := checkSchedSets(a); err != nil {
					t.Fatalf("cycle %d: %v\nsched=%s", c, err, dumpSched(a))
				}
				if refStep(b) {
					hits++
				}
				sa, sb := a.OccState(), b.OccState()
				if sa != sb {
					t.Fatalf("cycle %d: occupancy diverged\n  select:   %+v\n  per-slot: %+v\nsched(select)=%s\nsched(per-slot)=%s",
						c, sa, sb, dumpSched(a), dumpSched(b))
				}
				ca, cb := a.Counters().Snapshot().Raw(), b.Counters().Snapshot().Raw()
				if ca != cb {
					t.Fatalf("cycle %d: counters diverged\n select=%v\n per-slot=%v", c, ca, cb)
				}
			}
			if tc.bounded && hits == 0 {
				t.Errorf("the 64-entry scan bound never bound in %d cycles", a.Cycle())
			}
			ctr := a.Counters()
			t.Logf("%d cycles, scan bound hit on %d; %d µops issued, %d replayed", a.Cycle(), hits,
				ctr.Total(perfmon.IssuedUops), ctr.Total(perfmon.ReplayedUops))
		})
	}
}

// checkSchedSets checks the select's bitmaps against the scheduler ring
// between cycles: every ready-bitmap bit matches its entry's ready flag
// and port class, the union bitmap is the union, no entry is both due
// and ready, and no dispatched or reaped entry — a slot outside
// schedLive — is left in the due or ready sets. (The wheel may keep bits
// of such slots; wheelDrain masks them with schedLive.)
func checkSchedSets(m *Machine) error {
	nw := len(m.schedLive)
	for w := 0; w < nw; w++ {
		live, due, all := m.schedLive[w], m.schedDue[w], m.schedReadyAll[w]
		var union uint64
		for c := range classPorts {
			r := m.schedReady[c*nw+w]
			if union&r != 0 {
				return fmt.Errorf("word %d: slots %#x in two class ready sets", w, union&r)
			}
			union |= r
		}
		switch {
		case union != all:
			return fmt.Errorf("word %d: ready union %#x, class sets give %#x", w, all, union)
		case (due|all)&^live != 0:
			return fmt.Errorf("word %d: slots %#x not live but due or ready", w, (due|all)&^live)
		case due&all != 0:
			return fmt.Errorf("word %d: slots %#x both due and ready", w, due&all)
		}
		for v := live; v != 0; v &= v - 1 {
			b := bits.TrailingZeros64(v)
			e := &m.schedRing[w<<6|b]
			inSet := all&(1<<b) != 0
			if e.ready != inSet {
				return fmt.Errorf("slot %d: ready=%v but ready-set bit %v", w<<6|b, e.ready, inSet)
			}
			if inSet && m.schedReady[int(e.class)*nw+w]&(1<<b) == 0 {
				return fmt.Errorf("slot %d: ready in another class's set than its class %d", w<<6|b, e.class)
			}
		}
	}
	return nil
}

func dumpSched(m *Machine) string {
	out := ""
	m.schedEach(func(e schedEntry) {
		u := m.resolve(e.ref)
		if u == nil {
			out += fmt.Sprintf("[stale t%d wake=%d]", e.ref.tid, e.wake)
			return
		}
		out += fmt.Sprintf("[t%d %v seq=%d wake=%d rdy=%d retry=%d ready=%v canc=%v iss=%v]",
			e.ref.tid, u.in.Op, u.seq, e.wake, u.readyAt, u.retryAt, e.ready, u.cancelled, u.issued)
	})
	return out
}
