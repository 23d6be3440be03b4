package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the exact text output of the figure CLIs: any
// change to the timing model, the harness or the formatter — intended or
// not — shows up as a diff. Regenerate with:
//
//	go test ./cmd/streams -run TestGolden -update
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

func TestGoldenFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-fig", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig1", buf.Bytes())
}

// The three Figure 2 panels, each pinned as its own golden.
func TestGoldenFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("the three co-execution grids; skipped in -short")
	}
	for _, fig := range []string{"2a", "2b", "2c"} {
		t.Run(fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-fig", fig}, &buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fig"+fig, buf.Bytes())
		})
	}
}
