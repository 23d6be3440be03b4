package smt

import (
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/streams"
	"smtexplore/internal/trace"
)

// ffPair runs the same workload twice — fast-forward off and on — and
// returns both machines for comparison. FF is an internal shortcut over
// provably idle cycles, so every architectural observable must match the
// per-cycle run exactly.
func ffPair(t *testing.T, load func(m *Machine)) (slow, fast *Machine) {
	t.Helper()
	run := func(ff bool) *Machine {
		m := New(testConfig())
		m.SetFastForward(ff)
		load(m)
		res, err := m.Run(200_000_000)
		if err != nil {
			t.Fatalf("ff=%v: %v", ff, err)
		}
		if !res.Completed {
			t.Fatalf("ff=%v: hung", ff)
		}
		return m
	}
	return run(false), run(true)
}

// ffCompare asserts cycle-exact equivalence of the two finished runs:
// total cycles, the full counter bank, and the per-cell wait profile.
func ffCompare(t *testing.T, tag string, slow, fast *Machine) {
	t.Helper()
	if slow.Cycle() != fast.Cycle() {
		t.Fatalf("%s: cycles diverged: slow=%d fast=%d", tag, slow.Cycle(), fast.Cycle())
	}
	ss, sf := slow.Counters().Snapshot(), fast.Counters().Snapshot()
	for _, ev := range perfmon.Events() {
		for tid := 0; tid < NumContexts; tid++ {
			if a, b := ss.Get(ev, tid), sf.Get(ev, tid); a != b {
				t.Errorf("%s: %v[t%d]: slow=%d fast=%d", tag, ev, tid, a, b)
			}
		}
	}
	ws, wf := slow.WaitProfile(), fast.WaitProfile()
	if len(ws) != len(wf) {
		t.Fatalf("%s: wait profile size: slow=%v fast=%v", tag, ws, wf)
	}
	for c, v := range ws {
		if wf[c] != v {
			t.Errorf("%s: wait[%v]: slow=%d fast=%d", tag, c, v, wf[c])
		}
	}
}

// TestFastForwardParityRandomPrograms: FF ≡ per-cycle stepping over
// arbitrary dual-context programs with a spin handshake.
func TestFastForwardParityRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cell := isa.Cell(seed%8 + 1)
		slow, fast := ffPair(t, func(m *Machine) {
			m.LoadProgram(0, randomProgram(seed*3, 1000, []isa.Cell{cell}))
			m.LoadProgram(1, trace.Concat(
				trace.Generate(func(e *trace.Emitter) { e.Spin(cell, isa.CmpEQ, 1) }),
				randomProgram(seed*5, 600, nil),
			))
		})
		ffCompare(t, "spin", slow, fast)
		slow.Close()
		fast.Close()
	}
}

// TestFastForwardParityHaltWait: FF across halted-context spans (the
// deepest skips: one context halted, the other draining a long miss
// chain) still lands on the exact wake cycle.
func TestFastForwardParityHaltWait(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cell := isa.Cell(seed%8 + 1)
		slow, fast := ffPair(t, func(m *Machine) {
			m.LoadProgram(0, trace.Concat(
				randomProgram(seed*7, 900, []isa.Cell{cell}),
				randomProgram(seed*7+1, 300, nil),
			))
			m.LoadProgram(1, trace.Concat(
				trace.Generate(func(e *trace.Emitter) { e.HaltUntil(cell, isa.CmpEQ, 1) }),
				randomProgram(seed*11, 400, nil),
			))
		})
		ffCompare(t, "halt", slow, fast)
		slow.Close()
		fast.Close()
	}
}

// TestFastForwardParityMemBound: a single-context miss-dominated load
// chain, where FF skips the bulk of all cycles.
func TestFastForwardParityMemBound(t *testing.T) {
	slow, fast := ffPair(t, func(m *Machine) {
		m.LoadProgram(0, loadChainBody(0x4000_0000, 1<<20))
	})
	defer slow.Close()
	defer fast.Close()
	ffCompare(t, "membound", slow, fast)
}

// TestFastForwardSnapshotParity: snapshotting a paused FF run restores
// into a machine whose continuation matches the unpaused per-cycle run.
func TestFastForwardSnapshotParity(t *testing.T) {
	load := func(m *Machine) {
		m.LoadProgram(0, randomProgram(21, 1500, []isa.Cell{3}))
		m.LoadProgram(1, trace.Concat(
			trace.Generate(func(e *trace.Emitter) { e.Spin(3, isa.CmpEQ, 1) }),
			randomProgram(23, 500, nil),
		))
	}
	ref := New(testConfig())
	defer ref.Close()
	ref.SetFastForward(false)
	load(ref)
	if _, err := ref.Run(200_000_000); err != nil {
		t.Fatal(err)
	}

	m := New(testConfig())
	defer m.Close()
	m.SetFastForward(true)
	load(m)
	var snap *Snapshot
	res, err := m.RunPausable(200_000_000, 2000, func() bool {
		if snap == nil && m.Cycle() > 3000 {
			snap = m.Snapshot()
			return true
		}
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Paused || snap == nil {
		t.Fatal("run never paused for the snapshot")
	}

	r := New(testConfig())
	defer r.Close()
	r.SetFastForward(true)
	load(r)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	ffCompare(t, "restored", ref, r)
}

// TestStepZeroAllocSteadyState: once warm, the disarmed per-cycle step
// path performs no heap allocation at all — across compute-bound,
// dual-context and miss-dominated phases. This is the property the
// benchmark gate enforces with allocs/op; the test pins it locally.
func TestStepZeroAllocSteadyState(t *testing.T) {
	cases := []struct {
		name string
		load func(m *Machine)
	}{
		{"compute-2ctx", func(m *Machine) {
			m.LoadProgram(0, trace.Forever(chainProg(isa.FAdd, 1024, 6)))
			m.LoadProgram(1, trace.Forever(chainProg(isa.IAdd, 1024, 6)))
		}},
		{"membound-1ctx", func(m *Machine) {
			m.LoadProgram(0, trace.Forever(loadChainBody(0x4000_0000, 8<<20)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(testConfig())
			defer m.Close()
			tc.load(m)
			// Warm-up: fill the ROB/scheduler rings, fault in the loop
			// stream cache, reach steady state.
			if _, err := m.Run(50_000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 10_000; i++ {
					m.Step()
				}
			})
			if avg != 0 {
				t.Fatalf("steady-state stepping allocates: %.2f allocs per 10k cycles", avg)
			}
		})
	}
}

// TestRunZeroAllocLoopStreams: once warm, repeated Run calls on loop
// streams allocate nothing — on a memory stream, where the periodic
// detector stands down at its first sample; on an arithmetic pair whose
// period outlasts the run, where it samples without ever firing; and on
// an arithmetic stream, where it jumps. The nomination table and the
// encoding buffers are reused across samples and across calls.
func TestRunZeroAllocLoopStreams(t *testing.T) {
	cases := []struct {
		name  string
		specs []streams.Spec
		jumps bool
	}{
		{"memory", []streams.Spec{{Kind: streams.FLoadS, ILP: streams.MaxILP}}, false},
		{"aperiodic", []streams.Spec{{Kind: streams.IMulS, ILP: streams.MinILP}, {Kind: streams.IDivS, ILP: streams.MinILP}}, false},
		{"arithmetic", []streams.Spec{{Kind: streams.FMulS, ILP: streams.MedILP}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(DefaultConfig())
			defer m.Close()
			for i, sp := range tc.specs {
				m.LoadStream(i, streams.Open(sp))
			}
			if _, err := m.Run(50_000); err != nil {
				t.Fatal(err)
			}
			samples, jumps := m.per.samples, m.per.jumps
			avg := testing.AllocsPerRun(10, func() {
				if _, err := m.Run(10_000); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Fatalf("Run(10_000) allocates: %.2f allocs per call", avg)
			}
			if sampled := m.per.samples > samples; sampled != (tc.name != "memory") {
				t.Fatalf("detector sampled during the measured calls: %v", sampled)
			}
			if jumped := m.per.jumps > jumps; jumped != tc.jumps {
				t.Fatalf("periodic jumps during the measured calls: %v, want %v", jumped, tc.jumps)
			}
		})
	}
}
