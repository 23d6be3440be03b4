package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtexplore/internal/study/compile"
	"smtexplore/studies"
)

// The golden tests pin the exact text of every committed table: any
// change to the timing model, the specs or the formatters — intended
// or not — shows up as a diff. The goldens live next to the specs, in
// studies/testdata. Regenerate with:
//
//	go test ./cmd/paper -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

var goldenDir = filepath.Join("..", "..", "studies", "testdata")

// storeDir is one result store shared by every test in the package, so
// a cell several tables use simulates once: its first reader checks
// the freshly simulated bytes, every later one the store round trip.
var storeDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "paper-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	storeDir = filepath.Join(dir, "store")
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// paper runs the command over the shared store.
func paper(t *testing.T, args ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append([]string{"-store", storeDir}, args...), &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name+".golden"))
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	return want
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(filepath.Join(goldenDir, name+".golden"), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readGolden(t, name); !bytes.Equal(got, want) {
		t.Errorf("output differs from %s.golden (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestGolden pins each table, in an order that lets later tables read
// the cells earlier ones stored.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		short  string // why the table is skipped in -short; "" runs it
	}{
		{"fig1", []string{"fig1"}, ""},
		{"fig2a", []string{"fig2a"}, "the co-execution grids"},
		{"fig2b", []string{"fig2b"}, "the co-execution grids"},
		{"fig2c", []string{"fig2c"}, "the co-execution grids"},
		{"fig3", []string{"fig3"}, "Figure 3 runs N=128 MM cells"},
		{"fig4", []string{"fig4"}, "Figure 4 runs N=128 LU cells"},
		{"mm-small", []string{"-sizes", "16,32", "fig3"}, ""},
		{"lu-small", []string{"-sizes", "16,32", "fig4"}, ""},
		{"cg", []string{"fig5cg"}, "the CG instance runs multi-million-cycle kernels"},
		{"bt", []string{"fig5bt"}, "the BT instance runs multi-million-cycle kernels"},
		{"table1", []string{"table1"}, "table 1 runs full-size kernels"},
		{"sync", []string{"sync"}, "the sync study runs full-size MM cells"},
		{"span", []string{"span"}, "the span study runs full-size MM cells"},
		{"partition", []string{"partition"}, "the partition study runs full-size MM cells"},
		{"selective", []string{"selective"}, ""},
		{"mm-16", []string{"-sizes", "16", "sensitivity"}, ""},
		{"mm-64", []string{"sensitivity"}, "the default sweep runs ten N=64 MM cells"},
		{"quick-report", []string{"-score", "-sizes", "16,32", "fig3", "fig4", "fig5", "table1"}, "the quick collection still simulates CG and BT"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if tc.short != "" && testing.Short() {
				t.Skip(tc.short + "; skipped in -short")
			}
			checkGolden(t, tc.golden, paper(t, tc.args...))
		})
	}
}

// A spec name prints its sweeps' tables back to back.
func TestSpecIsItsSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size figures and ablations; skipped in -short")
	}
	for _, tc := range []struct {
		spec    string
		goldens []string
	}{
		{"fig2", []string{"fig2a", "fig2b", "fig2c"}},
		{"fig5", []string{"cg", "bt"}},
		{"ablations", []string{"sync", "span", "partition", "selective"}},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			var want []byte
			for _, g := range tc.goldens {
				want = append(want, readGolden(t, g)...)
			}
			if got := paper(t, tc.spec); !bytes.Equal(got, want) {
				t.Errorf("paper %s differs from the goldens %v concatenated\ngot:\n%s\nwant:\n%s", tc.spec, tc.goldens, got, want)
			}
		})
	}
}

// The sensitivity sweep compares every row against one baseline, so a
// -sizes list gives it only the last size.
func TestSensitivityTakesTheLastSize(t *testing.T) {
	if got, want := paper(t, "-sizes", "32,16", "sensitivity"), readGolden(t, "mm-16"); !bytes.Equal(got, want) {
		t.Errorf("paper -sizes 32,16 sensitivity differs from mm-16.golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Each observed kernel cell writes its own three artifacts: the
// observe label carries the kernel and the mode, so neither the modes
// of one instance nor the mm and lu cells of one size overwrite each
// other's files.
func TestObserveWritesEachCell(t *testing.T) {
	s, err := studies.Select("fig3", "fig4")
	if err != nil {
		t.Fatal(err)
	}
	studies.SetSizes(s, []int{16})
	plan, err := compile.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		match string
		names []string
		cells int
	}{
		{"tlp-fine", []string{"fig3"}, 1},
		{"", []string{"fig3", "fig4"}, len(plan.Cells)},
	} {
		dir := t.TempDir()
		args := []string{"-sizes", "16", "-observe", dir}
		if tc.match != "" {
			args = append(args, "-observe-match", tc.match)
		}
		if err := run(append(args, tc.names...), io.Discard); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3*tc.cells {
			t.Errorf("paper -observe-match %q %v: %d artifacts, want 3 × %d cells", tc.match, tc.names, len(entries), tc.cells)
		}
		for _, e := range entries {
			if !strings.Contains(e.Name(), tc.match) {
				t.Errorf("-observe-match %q wrote %s", tc.match, e.Name())
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown-name", []string{"bogus"}},
		{"workers-0", []string{"-workers", "0"}},
		{"sizes-0", []string{"-sizes", "0"}},
		{"sizes-x", []string{"-sizes", "x"}},
		{"unknown-flag", []string{"-no-such-flag"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.args, io.Discard); !errors.Is(err, errUsage) {
				t.Errorf("run(%q) = %v, want errUsage", tc.args, err)
			}
		})
	}
}
