package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the exact text output of the ablation CLI: any
// change to the timing model, the harness or the formatter — intended
// or not — shows up as a diff. Regenerate with:
//
//	go test ./cmd/ablate -run TestGolden -update
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

func TestGoldenSelective(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-study", "selective"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "selective", buf.Bytes())
}

func TestGoldenSync(t *testing.T) {
	if testing.Short() {
		t.Skip("the sync study runs full-size MM cells; skipped in -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-study", "sync"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sync", buf.Bytes())
}

// TestGoldenSpan and TestGoldenPartition pin the §3.2 span sweep and the
// §5.3 partitioning contrast.
func TestGoldenSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("the span study runs full-size MM cells; skipped in -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-study", "span"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "span", buf.Bytes())
}

func TestGoldenPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("the partition study runs full-size MM cells; skipped in -short")
	}
	var buf bytes.Buffer
	if err := run([]string{"-study", "partition"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "partition", buf.Bytes())
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-study", "bogus"},
		{"-workers", "0"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}
