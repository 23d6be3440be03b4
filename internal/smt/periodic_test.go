package smt

import (
	"fmt"
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/streams"
)

// periodicWindows are the measurement windows of the parity test: the
// Figure 1/2 window, its half and sixth, and a prime no period divides.
var periodicWindows = []uint64{20_000, 60_000, 99_991, 120_000}

// streamCell is one Figure 1/2 stream cell: a solo spec or a pair.
type streamCell []streams.Spec

func (c streamCell) String() string {
	s := c[0].Kind.String()
	if len(c) == 2 {
		s += "+" + c[1].Kind.String()
	}
	return fmt.Sprintf("%s/%v", s, c[0].ILP)
}

// arith reports whether no stream of the cell touches memory — the
// cells the periodic skip must engage on.
func (c streamCell) arith() bool {
	for _, sp := range c {
		if sp.Kind.IsMem() {
			return false
		}
	}
	return true
}

// load binds the cell's streams as the experiments layer does.
func (c streamCell) load(m *Machine) {
	for i, sp := range c {
		sp.Base = streams.DisjointBase(i)
		m.LoadStream(i, streams.Open(sp))
	}
}

// allStreamCells is every kind × ILP, solo and with every partner.
func allStreamCells() []streamCell {
	var cells []streamCell
	for _, ilp := range streams.Levels() {
		for _, k := range streams.All() {
			sp := streams.Spec{Kind: k, ILP: ilp}
			cells = append(cells, streamCell{sp})
			for _, q := range streams.All() {
				cells = append(cells, streamCell{sp, {Kind: q, ILP: ilp}})
			}
		}
	}
	return cells
}

// outcome is everything a cell reports — cycles, the perfmon bank and
// the per-cell wait profile — plus each stream's position, which a
// Snapshot records.
type outcome struct {
	cycle uint64
	ctr   perfmon.Snapshot
	wait  map[isa.Cell]uint64
	gen   [NumContexts]uint64
}

func outcomeOf(m *Machine) outcome {
	o := outcome{cycle: m.Cycle(), ctr: m.Counters().Snapshot(), wait: m.WaitProfile()}
	for i := range m.threads {
		if t := &m.threads[i]; t.started {
			o.gen[i] = t.stream.Generated
		}
	}
	return o
}

func (o outcome) diff(ref outcome) string {
	if o.cycle != ref.cycle {
		return fmt.Sprintf("cycle %d, want %d", o.cycle, ref.cycle)
	}
	if o.gen != ref.gen {
		return fmt.Sprintf("streams at %v, want %v", o.gen, ref.gen)
	}
	for _, ev := range perfmon.Events() {
		for tid := 0; tid < NumContexts; tid++ {
			if a, b := o.ctr.Get(ev, tid), ref.ctr.Get(ev, tid); a != b {
				return fmt.Sprintf("%v[t%d] = %d, want %d", ev, tid, a, b)
			}
		}
	}
	if len(o.wait) != len(ref.wait) {
		return fmt.Sprintf("wait profile %v, want %v", o.wait, ref.wait)
	}
	for c, v := range ref.wait {
		if o.wait[c] != v {
			return fmt.Sprintf("wait[%v] = %d, want %d", c, o.wait[c], v)
		}
	}
	return ""
}

// referenceOutcomes steps the cell cycle by cycle (fast-forward off,
// which also disables the periodic skip) and records its outcome at
// every window edge.
func referenceOutcomes(t *testing.T, load func(*Machine), windows []uint64) []outcome {
	t.Helper()
	m := New(DefaultConfig())
	defer m.Close()
	m.SetFastForward(false)
	load(m)
	out := make([]outcome, len(windows))
	for i, w := range windows {
		if _, err := m.Run(w - m.Cycle()); err != nil {
			t.Fatal(err)
		}
		out[i] = outcomeOf(m)
	}
	return out
}

// longPeriodCells are the arithmetic pairs whose joint steady state does
// not recur twice inside even the 120k window (an idiv+imul/minILP probe
// stepped 300k cycles without one repeat), so the skip cannot engage.
var longPeriodCells = map[string]bool{
	"fadd-mul+fdiv/maxILP": true, "fdiv+fadd-mul/maxILP": true,
	"fadd-mul+idiv/maxILP": true, "fadd-mul+idiv/medILP": true,
	"idiv+fadd-mul/medILP": true, "fdiv+fmul/medILP": true,
	"fmul+fdiv/medILP": true, "fmul+idiv/medILP": true,
	"idiv+fmul/medILP": true, "idiv+imul/minILP": true,
	"imul+idiv/minILP": true,
}

// TestPeriodicSkipParity: with the skip on, every Figure 1/2 stream cell
// reports exactly what per-cycle stepping reports, at every window and
// across snapshot/restore at each 25k-cycle pause. The skip engages on
// every arithmetic-only cell — solo cells at every window, pairs at the
// 120k window unless listed in longPeriodCells — and never on a cell
// with a memory stream.
func TestPeriodicSkipParity(t *testing.T) {
	cells := allStreamCells()
	for i, c := range cells {
		if (testing.Short() || raceBuild) && i%8 != 0 {
			continue // every eighth cell: a spread of kinds, ILPs and partners
		}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			refs := referenceOutcomes(t, c.load, periodicWindows)
			for i, w := range periodicWindows {
				m := New(DefaultConfig())
				c.load(m)
				if _, err := m.Run(w); err != nil {
					t.Fatal(err)
				}
				if d := outcomeOf(m).diff(refs[i]); d != "" {
					t.Errorf("window %d: %s", w, d)
				}
				jumps := m.per.jumps
				m.Close()
				if w > 25_000 {
					jumps += periodicPauseParity(t, c.load, w, refs[i])
				}
				switch {
				case !c.arith() && jumps != 0:
					t.Errorf("window %d: %d periodic jumps with a memory stream", w, jumps)
				case c.arith() && jumps == 0 && (len(c) == 1 || w == 120_000 && !longPeriodCells[c.String()]):
					t.Errorf("window %d: the periodic skip never engaged", w)
				}
			}
		})
	}
}

// periodicPauseParity runs a window with a pause every 25k cycles; at
// each pause it snapshots, restores into a fresh machine and finishes
// the window there. Every finish and the paused run itself must match
// the reference. It returns the periodic jumps of all those machines.
func periodicPauseParity(t *testing.T, load func(*Machine), w uint64, ref outcome) uint64 {
	t.Helper()
	m := New(DefaultConfig())
	defer m.Close()
	load(m)
	var jumps uint64
	_, err := m.RunPausable(w, 25_000, func() bool {
		r := New(DefaultConfig())
		defer r.Close()
		load(r)
		if err := r.Restore(m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(w - r.Cycle()); err != nil {
			t.Fatal(err)
		}
		if d := outcomeOf(r).diff(ref); d != "" {
			t.Errorf("window %d, restored at %d: %s", w, m.Cycle(), d)
		}
		jumps += r.per.jumps
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := outcomeOf(m).diff(ref); d != "" {
		t.Errorf("window %d, paused every 25k: %s", w, d)
	}
	return jumps + m.per.jumps
}

// TestPeriodicSkipIneligible: a generator program, an armed observer or
// a set synchronisation cell keeps the skip off, and the cell still
// matches per-cycle stepping.
func TestPeriodicSkipIneligible(t *testing.T) {
	sp := streams.Spec{Kind: streams.FAddS, ILP: streams.MaxILP}
	const w = 60_000
	cases := []struct {
		name string
		load func(m *Machine)
	}{
		{"generator", func(m *Machine) { m.LoadProgram(0, streams.Build(sp)) }},
		{"on-retire", func(m *Machine) {
			m.LoadStream(0, streams.Open(sp))
			m.OnRetire(func(RetireInfo) {})
		}},
		{"on-cycle", func(m *Machine) {
			m.LoadStream(0, streams.Open(sp))
			m.OnCycle(func() {})
		}},
		{"sync-cell", func(m *Machine) {
			m.LoadStream(0, streams.Open(sp))
			m.SetCell(1, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := referenceOutcomes(t, tc.load, []uint64{w})[0]
			m := New(DefaultConfig())
			defer m.Close()
			tc.load(m)
			if _, err := m.Run(w); err != nil {
				t.Fatal(err)
			}
			if d := outcomeOf(m).diff(ref); d != "" {
				t.Error(d)
			}
			if m.per.jumps != 0 {
				t.Errorf("%d periodic jumps, want none", m.per.jumps)
			}
		})
	}
}

// TestPeriodicSkipAcrossRuns: a proven period carries over to later Run
// calls, which jump straight away — and stay exact.
func TestPeriodicSkipAcrossRuns(t *testing.T) {
	c := streamCell{{Kind: streams.IMulS, ILP: streams.MedILP}, {Kind: streams.FAddS, ILP: streams.MedILP}}
	windows := []uint64{30_000, 40_000, 50_000, 60_000}
	refs := referenceOutcomes(t, c.load, windows)
	m := New(DefaultConfig())
	defer m.Close()
	c.load(m)
	for i, w := range windows {
		before := m.per.jumps
		if _, err := m.Run(w - m.Cycle()); err != nil {
			t.Fatal(err)
		}
		if d := outcomeOf(m).diff(refs[i]); d != "" {
			t.Fatalf("after run to %d: %s", w, d)
		}
		if i > 0 && m.per.jumps == before {
			t.Errorf("run to %d: no periodic jump", w)
		}
	}
}
