package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the exact text output of the kernel-figure CLI:
// any change to the timing model, the harness or the formatter — intended
// or not — shows up as a diff. Regenerate with:
//
//	go test ./cmd/kernels -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

func TestGoldenMMSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "mm", "-sizes", "16,32"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mm-small", buf.Bytes())
}

func TestGoldenTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 runs full-size kernels; skipped in -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-table", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", buf.Bytes())
}

func TestGoldenLUSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench", "lu", "-sizes", "16,32"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lu-small", buf.Bytes())
}

// TestGoldenFig5 pins both Figure 5 panel groups at their default
// instances.
func TestGoldenFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("the CG and BT instances run multi-million-cycle kernels; skipped in -short")
	}
	for _, bench := range []string{"cg", "bt"} {
		t.Run(bench, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-bench", bench}, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, bench, buf.Bytes())
		})
	}
}
