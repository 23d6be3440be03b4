package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"smtexplore/internal/checkpoint"
	"smtexplore/internal/faultinject"
	"smtexplore/internal/kernels"
	"smtexplore/internal/kernels/mm"
	"smtexplore/internal/runner"
)

const (
	ckKey   = "ck-test-mm-16"
	ckLabel = "mm/tlp-fine/16"
	ckEvery = 2000
)

func ckBuilder(t *testing.T) Builder {
	t.Helper()
	b, err := mm.New(mm.DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ckControl is the uninterrupted reference run the parity assertions
// compare against.
func ckControl(t *testing.T) KernelMetrics {
	t.Helper()
	km, err := RunKernel(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel)
	if err != nil {
		t.Fatal(err)
	}
	return km
}

// TestCheckpointResumeParity is the tentpole guarantee at the harness
// level: preempt a kernel cell at a checkpoint, resume it in a separate
// call (fresh machine, as a restarted process would), and require the
// resulting metrics to be exactly those of an uninterrupted run. The
// cells are the ones a cluster's workers run checkpointed: every mode mm
// and lu implement at N=32, paused every 25 000 cycles and preempted at
// the second pause. -short runs two of them.
func TestCheckpointResumeParity(t *testing.T) {
	type cellCase struct {
		kernel string
		mode   kernels.Mode
	}
	var cells []cellCase
	for _, m := range []kernels.Mode{kernels.Serial, kernels.TLPFine, kernels.TLPCoarse, kernels.TLPPfetch, kernels.TLPPfetchWork, kernels.SerialPrefetch} {
		cells = append(cells, cellCase{"mm", m})
	}
	for _, m := range []kernels.Mode{kernels.Serial, kernels.TLPCoarse, kernels.TLPPfetch} {
		cells = append(cells, cellCase{"lu", m})
	}
	if testing.Short() {
		cells = []cellCase{{"mm", kernels.TLPFine}, {"lu", kernels.TLPPfetch}}
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s-32-%v", c.kernel, c.mode), func(t *testing.T) {
			t.Parallel()
			cell, err := resolveKernelCell(c.kernel, 32, c.mode, "")
			if err != nil {
				t.Fatal(err)
			}
			build := func() Builder {
				b, err := newBuilder(cell.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			control, err := RunKernel(build(), c.mode, cell.mcfg, cell.label)
			if err != nil {
				t.Fatal(err)
			}
			checkResumeParity(t, build, c.mode, cell.label, cell.key, 25_000, control)
		})
	}
}

// checkResumeParity runs a cell checkpointed every `every` cycles,
// preempts it at the second pause, resumes it on a fresh machine, and
// requires the resumed metrics to equal control.
func checkResumeParity(t *testing.T, build func() Builder, mode kernels.Mode, label, key string, every uint64, control KernelMetrics) {
	t.Helper()
	sink := checkpoint.NewMemSink()
	stats := &CheckpointStats{}

	// First attempt: stop at the second pause point.
	var pauses atomic.Uint64
	ck := &Checkpointing{
		Every: every,
		Sink:  sink,
		Stats: stats,
		ShouldStop: func() (string, bool) {
			return "test preemption", pauses.Add(1) >= 2
		},
	}
	_, err := runKernelCheckpointed(build(), mode, KernelMachineConfig(), label, key, ck)
	if !errors.Is(err, ErrCellPreempted) {
		t.Fatalf("want ErrCellPreempted, got %v", err)
	}
	if !strings.Contains(err.Error(), "test preemption") {
		t.Errorf("preemption error lacks the reason: %v", err)
	}
	if _, ok := sink.Load(checkpoint.SinkKey(key)); !ok {
		t.Fatal("no checkpoint in the sink after preemption")
	}
	written, restored, bytes, _ := stats.Snapshot()
	if written < 2 || bytes == 0 || restored != 0 {
		t.Fatalf("after preemption: written=%d restored=%d bytes=%d", written, restored, bytes)
	}

	// Second attempt: resume and run to completion.
	var resumedFrom atomic.Uint64
	ck2 := ck.ForCell(nil, func(saved uint64) { resumedFrom.Store(saved) })
	got, err := runKernelCheckpointed(build(), mode, KernelMachineConfig(), label, key, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, control) {
		t.Fatalf("resumed metrics differ from uninterrupted run:\n got %+v\nwant %+v", got, control)
	}
	if resumedFrom.Load() == 0 {
		t.Error("OnRestore not called with a nonzero cycle")
	}
	if _, _, _, saved := stats.Snapshot(); saved == 0 {
		t.Error("resume_cycles_saved not accumulated")
	}
	if _, ok := sink.Load(checkpoint.SinkKey(key)); ok {
		t.Error("checkpoint not deleted after completion")
	}
}

// TestCheckpointCorruptIsDiscarded plants garbage under the cell's sink
// key: the run must discard it, start from cycle zero and still produce
// the uninterrupted metrics.
func TestCheckpointCorruptIsDiscarded(t *testing.T) {
	control := ckControl(t)
	sink := checkpoint.NewMemSink()
	sink.Store(checkpoint.SinkKey(ckKey), []byte("definitely not a checkpoint"))
	stats := &CheckpointStats{}
	ck := &Checkpointing{Every: ckEvery, Sink: sink, Stats: stats}
	got, err := runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, ckKey, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, control) {
		t.Fatalf("metrics after discarding corrupt checkpoint differ:\n got %+v\nwant %+v", got, control)
	}
	if _, restored, _, _ := stats.Snapshot(); restored != 0 {
		t.Error("corrupt checkpoint counted as restored")
	}
}

// TestCheckpointKeyMismatchIsDiscarded stores a valid checkpoint that
// belongs to a different cell under this cell's sink key.
func TestCheckpointKeyMismatchIsDiscarded(t *testing.T) {
	sink := checkpoint.NewMemSink()
	var pauses atomic.Uint64
	ck := &Checkpointing{
		Every:      ckEvery,
		Sink:       sink,
		ShouldStop: func() (string, bool) { return "seed", pauses.Add(1) >= 1 },
	}
	if _, err := runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, "other-cell", ck); !errors.Is(err, ErrCellPreempted) {
		t.Fatalf("seeding preemption: %v", err)
	}
	data, ok := sink.Load(checkpoint.SinkKey("other-cell"))
	if !ok {
		t.Fatal("no seeded checkpoint")
	}
	sink.Store(checkpoint.SinkKey(ckKey), data)

	stats := &CheckpointStats{}
	ck2 := &Checkpointing{Every: ckEvery, Sink: sink, Stats: stats}
	if _, err := runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, ckKey, ck2); err != nil {
		t.Fatal(err)
	}
	if _, restored, _, _ := stats.Snapshot(); restored != 0 {
		t.Error("foreign checkpoint counted as restored")
	}
}

// TestCheckpointFaultInjection exercises both injection points: a write
// fault suppresses checkpoints without failing the run; a restore fault
// drops a stored checkpoint and the run completes clean.
func TestCheckpointFaultInjection(t *testing.T) {
	defer faultinject.Disarm()

	arm := func(point string) {
		in, err := faultinject.New(faultinject.Plan{Rules: []faultinject.Rule{
			{Point: point, Action: faultinject.ActionError, Error: "injected"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Arm(in)
	}

	control := ckControl(t)
	sink := checkpoint.NewMemSink()
	stats := &CheckpointStats{}

	arm(faultinject.PointCheckpointWrite)
	ck := &Checkpointing{Every: ckEvery, Sink: sink, Stats: stats}
	got, err := runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, ckKey, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, control) {
		t.Fatal("write-fault run diverged from control")
	}
	if written, _, _, _ := stats.Snapshot(); written != 0 {
		t.Fatalf("checkpoints written despite injected write fault: %d", written)
	}

	// Seed a real checkpoint, then fault the restore path.
	faultinject.Disarm()
	var pauses atomic.Uint64
	seed := &Checkpointing{
		Every:      ckEvery,
		Sink:       sink,
		ShouldStop: func() (string, bool) { return "seed", pauses.Add(1) >= 1 },
	}
	if _, err := runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, ckKey, seed); !errors.Is(err, ErrCellPreempted) {
		t.Fatalf("seeding preemption: %v", err)
	}
	arm(faultinject.PointCheckpointRestore)
	stats2 := &CheckpointStats{}
	ck2 := &Checkpointing{Every: ckEvery, Sink: sink, Stats: stats2}
	got, err = runKernelCheckpointed(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), ckLabel, ckKey, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, control) {
		t.Fatal("restore-fault run diverged from control")
	}
	if _, restored, _, _ := stats2.Snapshot(); restored != 0 {
		t.Error("restore counted despite injected restore fault")
	}
}

// TestOptionsRoutesCheckpointing verifies the Options plumbing: a kernel
// cell under an enabled Checkpointing config goes through the
// checkpointed path (visible via the write counters) and its result is
// identical to the plain path's.
func TestOptionsRoutesCheckpointing(t *testing.T) {
	cell, err := resolveKernelCell("mm", 16, kernels.TLPFine, "")
	if err != nil {
		t.Fatal(err)
	}
	control, err := RunKernel(ckBuilder(t), kernels.TLPFine, KernelMachineConfig(), cell.label)
	if err != nil {
		t.Fatal(err)
	}
	stats := &CheckpointStats{}
	opt := Options{
		Cache: runner.NewCache(),
		Checkpoint: &Checkpointing{
			Every: ckEvery,
			Sink:  checkpoint.NewMemSink(),
			Stats: stats,
		},
	}
	got, err := opt.runKernel(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, control) {
		t.Fatal("checkpointed cell result diverged from plain run")
	}
	if written, _, _, _ := stats.Snapshot(); written == 0 {
		t.Fatal("keyed cell did not take the checkpointed path")
	}

	// An observed cell must bypass checkpointing even when configured.
	before, _, _, _ := stats.Snapshot()
	opt.Observe = &Observe{Dir: t.TempDir()}
	if _, err := opt.runKernel(cell); err != nil {
		t.Fatal(err)
	}
	if after, _, _, _ := stats.Snapshot(); after != before {
		t.Fatal("observed cell wrote checkpoints")
	}
}
