package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"smtexplore/internal/kernels"
	"smtexplore/internal/obs"
	"smtexplore/internal/runner"
	"smtexplore/internal/streams"
)

func artifactSet(t *testing.T, dir, label string) {
	t.Helper()
	for _, suffix := range []string{".trace.json", ".occupancy.csv", ".metrics.json"} {
		p := filepath.Join(dir, obs.Slug(label)+suffix)
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestObserveStreamCellWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Cache:   runner.NewCache(),
		Observe: &Observe{Dir: dir, SampleEvery: 64},
	}
	specs := []streams.Spec{{Kind: streams.FAddS, ILP: streams.MaxILP}}
	if _, err := opt.measureCPI(StreamMachineConfig(), specs, 10_000); err != nil {
		t.Fatal(err)
	}
	artifactSet(t, dir, "fadd-maxILP@10000")
}

// TestObserveBypassesCache seeds the cache with the cell, then observes
// the same cell: were the cache consulted, the simulation would be
// skipped and no artifacts produced.
func TestObserveBypassesCache(t *testing.T) {
	cache := runner.NewCache()
	specs := []streams.Spec{{Kind: streams.IAddS, ILP: streams.MedILP}}
	plain := Options{Cache: cache}
	want, err := plain.measureCPI(StreamMachineConfig(), specs, 10_000)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	observed := Options{
		Cache:   cache,
		Observe: &Observe{Dir: dir, SampleEvery: 64},
	}
	got, err := observed.measureCPI(StreamMachineConfig(), specs, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	artifactSet(t, dir, "iadd-medILP@10000")
	// Simulations are deterministic, so the re-simulated cell must agree
	// with the cached result — observation alters artifacts, not data.
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("observed CPI %v != cached %v", got, want)
	}
	// The observed run must not have polluted the cache counters with a
	// hit (bypass means no lookup at all).
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("observed cell hit the cache: %+v", st)
	}
}

func TestObserveMatchFiltersCells(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Observe: &Observe{Dir: dir, Match: MatchSubstring("fmul"), SampleEvery: 64},
	}
	mcfg := StreamMachineConfig()
	if _, err := opt.measureCPI(mcfg, []streams.Spec{{Kind: streams.FAddS, ILP: streams.MaxILP}}, 10_000); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.measureCPI(mcfg, []streams.Spec{{Kind: streams.FMulS, ILP: streams.MaxILP}}, 10_000); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !MatchSubstring("fmul")(e.Name()) {
			t.Errorf("unmatched cell left artifact %s", e.Name())
		}
	}
	artifactSet(t, dir, "fmul-maxILP@10000")
}

func TestObserveKernelCellWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Cache:   runner.NewCache(),
		Observe: &Observe{Dir: dir, SampleEvery: 64},
	}
	km, err := VariantKernelCell(opt, "mm", 16, kernels.Serial, "rob=64")
	if err != nil {
		t.Fatal(err)
	}
	if km.Cycles == 0 {
		t.Fatal("kernel reported zero cycles")
	}
	// A variant's artifacts are named after the kernel, the instance, the
	// mode and the variant.
	artifactSet(t, dir, "mm-N-16-serial-rob-64")
}
