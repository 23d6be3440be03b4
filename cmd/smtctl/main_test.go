package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtexplore/internal/service"
)

// startDaemon serves a real service over HTTP and returns the smtctl
// -addr value for it.
func startDaemon(t *testing.T, cfg service.Config) string {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://")
}

func ctl(t *testing.T, addr string, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), append([]string{"-addr", addr}, args...), &buf)
	return buf.String(), err
}

// blockerBatch writes the sync ablation's three cells (mm N=64
// tlp-pfetch under each wait primitive, ~2 s of simulation on one
// worker) as a batch file: a job that stays running long enough to be
// cancelled or to hold a worker.
func blockerBatch(t *testing.T) string {
	t.Helper()
	var req service.SubmitRequest
	for _, v := range []string{"wait=spin", "wait=spin+pause", "wait=halt"} {
		req.Cells = append(req.Cells, service.CellSpec{Type: service.TypeKernel, Kernel: "mm", Size: 64, Mode: "tlp-pfetch", Variant: v})
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blocker.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSubmitWaitResult(t *testing.T) {
	addr := startDaemon(t, service.Config{Workers: 2})

	out, err := ctl(t, addr, "submit", "-stream", "fadd,iload", "-ilp", "med", "-window", "2000")
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out)
	if id == "" {
		t.Fatal("submit printed no job ID")
	}

	out, err = ctl(t, addr, "wait", id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if !strings.Contains(out, id+" done") {
		t.Errorf("wait output %q lacks %q", out, id+" done")
	}

	out, err = ctl(t, addr, "result", "-cell", "0", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"state": "done"`) || !strings.Contains(out, `"cpi"`) {
		t.Errorf("cell result lacks state/cpi:\n%s", out)
	}

	out, err = ctl(t, addr, "status", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"state": "done"`) {
		t.Errorf("status lacks terminal state:\n%s", out)
	}
}

// A failing cell must surface through wait as a non-zero outcome carrying
// the cell's error — never a silent "done". The cell here passes submit
// validation (names are fine) and fails at runtime on the stream count.
func TestWaitSurfacesCellFailure(t *testing.T) {
	addr := startDaemon(t, service.Config{Workers: 2})

	batch := filepath.Join(t.TempDir(), "batch.json")
	spec := `{"cells":[{"type":"stream","window":2000,"streams":[{"kind":"fadd"},{"kind":"fadd"},{"kind":"fadd"}]}]}`
	if err := os.WriteFile(batch, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, addr, "submit", "-f", batch)
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out)

	_, err = ctl(t, addr, "wait", id)
	if !errors.Is(err, errJobFailed) {
		t.Fatalf("wait on failing job = %v, want errJobFailed", err)
	}
	if !strings.Contains(err.Error(), "3 streams") {
		t.Errorf("failure error %q does not carry the cell error", err)
	}
}

// Cancellation is a distinct outcome from failure: exit status 3 via
// errJobCancelled, with the cancellation reason in the message.
func TestWaitSurfacesCancellation(t *testing.T) {
	addr := startDaemon(t, service.Config{Workers: 1, MaxActive: 1})

	out, err := ctl(t, addr, "submit", "-f", blockerBatch(t))
	if err != nil {
		t.Fatal(err)
	}
	id := strings.TrimSpace(out)
	out, err = ctl(t, addr, "cancel", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, id) {
		t.Errorf("cancel output %q lacks the job ID", out)
	}

	_, err = ctl(t, addr, "wait", id)
	if !errors.Is(err, errJobCancelled) {
		t.Fatalf("wait on cancelled job = %v, want errJobCancelled", err)
	}
	if errors.Is(err, errJobFailed) {
		t.Error("cancelled job also reported as failed; the outcomes must stay distinct")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"submit"},
		{"wait"},
		// Whole tables run as studies (study run -f); the harness-cell
		// flags are gone.
		{"submit", "-fig", "sync"},
		{"result", "-text", "j0001"},
		{"status"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
	}
}
