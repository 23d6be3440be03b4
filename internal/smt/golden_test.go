package smt

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smtexplore/internal/isa"
	"smtexplore/internal/perfmon"
	"smtexplore/internal/trace"
)

// The golden tests pin the exact behaviour of canonical workloads: any
// timing-model change — intended or not — shows up as a diff against
// testdata/golden.json. Regenerate with:
//
//	go test ./internal/smt -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden file")

type goldenEntry struct {
	Cycles      uint64 `json:"cycles"`
	Uops        uint64 `json:"uops"`
	Instr       uint64 `json:"instr"`
	L2Misses    uint64 `json:"l2_misses"`
	SpinUops    uint64 `json:"spin_uops"`
	Flushes     uint64 `json:"flushes"`
	HaltedCycle uint64 `json:"halted_cycles"`
}

func goldenWorkloads() map[string]func() *Machine {
	return map[string]func() *Machine{
		"fadd-chain": func() *Machine {
			m := New(testConfig())
			m.LoadProgram(0, chainProg(isa.FAdd, 5000, 3))
			return m
		},
		"dual-iadd": func() *Machine {
			m := New(testConfig())
			m.LoadProgram(0, chainProg(isa.IAdd, 4000, 6))
			m.LoadProgram(1, chainProg(isa.IAdd, 4000, 6))
			return m
		},
		"miss-stream": func() *Machine {
			m := New(testConfig())
			m.LoadProgram(0, trace.Generate(func(e *trace.Emitter) {
				for i := 0; i < 2000; i++ {
					e.Load(isa.F(i%6), uint64(i)*192+1<<24) // stride defeats the streamer
				}
			}))
			return m
		},
		"spin-handshake": func() *Machine {
			m := New(testConfig())
			m.LoadProgram(0, trace.Generate(func(e *trace.Emitter) {
				for i := 0; i < 2000; i++ {
					e.ALU(isa.FMul, isa.F(i%6), isa.F(8), isa.F(9))
				}
				e.SetFlag(1, 1, isa.CellAddr(1))
			}))
			m.LoadProgram(1, trace.Generate(func(e *trace.Emitter) {
				e.Spin(1, isa.CmpEQ, 1)
				for i := 0; i < 500; i++ {
					e.ALU(isa.IAdd, isa.R(i%6), isa.R(8), isa.R(9))
				}
			}))
			return m
		},
		"halt-handshake": func() *Machine {
			m := New(testConfig())
			m.LoadProgram(0, trace.Generate(func(e *trace.Emitter) {
				for i := 0; i < 3000; i++ {
					e.ALU(isa.FAdd, isa.F(i%6), isa.F(8), isa.F(9))
				}
				e.SetFlag(2, 1, isa.CellAddr(2))
			}))
			m.LoadProgram(1, trace.Generate(func(e *trace.Emitter) {
				e.HaltUntil(2, isa.CmpEQ, 1)
				e.ALU(isa.IAdd, isa.R(0), isa.R(8), isa.R(9))
			}))
			return m
		},
	}
}

func runGolden(t *testing.T, mk func() *Machine) goldenEntry {
	t.Helper()
	m := mk()
	res, err := m.Run(100_000_000)
	if err != nil || !res.Completed {
		t.Fatalf("golden run failed: err=%v completed=%v", err, res.Completed)
	}
	c := m.Counters()
	return goldenEntry{
		Cycles:      m.Cycle(),
		Uops:        c.Total(perfmon.UopsRetired),
		Instr:       c.Total(perfmon.InstrRetired),
		L2Misses:    c.Total(perfmon.L2ReadMisses) + m.Hierarchy().Thread(0).L2ReadMisses + m.Hierarchy().Thread(1).L2ReadMisses,
		SpinUops:    c.Total(perfmon.SpinUopsRetired),
		Flushes:     c.Total(perfmon.PipelineFlushes),
		HaltedCycle: c.Total(perfmon.HaltedCycles),
	}
}

func TestGoldenCounters(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := map[string]goldenEntry{}
	for name, mk := range goldenWorkloads() {
		got[name] = runGolden(t, mk)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (%v); run with -update to create it", err)
	}
	want := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("golden workload %q no longer exists", name)
			continue
		}
		if g != w {
			t.Errorf("%s drifted:\n got %+v\nwant %+v\n(intended model change? rerun with -update)", name, g, w)
		}
	}
}
