package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden tests pin the exact text output of the sensitivity CLI: any
// change to the timing model, the sweep or the formatter — intended or
// not — shows up as a diff. Regenerate with:
//
//	go test ./cmd/sensitivity -run TestGolden -update
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
	if err := run([]string{"-size", "16"}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mm-16", buf.Bytes())
}

// TestGoldenDefault pins the default sweep (mm N=64 tlp-coarse).
func TestGoldenDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("the default sweep runs ten N=64 MM cells; skipped in -short")
	}
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mm-64", buf.Bytes())
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "bogus"},
		{"-mode", "bogus"},
		{"-workers", "0"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}
