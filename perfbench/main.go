// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload in its own process and prints, as the last line
// of standard output, a JSON object with the run's correctness verdict,
// its op counts and its metrics: the end-to-end metrics with -trace 0,
// the per-layer metrics (from a traced run) with -trace 1. Every
// completed op is checked against the committed oracle (oracle.json).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-streams --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh -regen-oracle perfbench/oracle.json
//
// The workloads and the reasons for them are listed in BENCHMARK.json;
// README.md in this directory explains the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycle/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"goodput_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run reports, with their
// units. A layer off a workload's path reports 0.
var perLayer = []struct{ name, unit string }{
	{"smt.ns_per_cycle", "ns"},
	{"smt.run_ms_p50", "ms"},
	{"smt.uops_per_cycle", "uop/cycle"},
	{"mem.l1_accesses_per_kcycle", "1/kcycle"},
	{"mem.l1_miss_ratio", "ratio"},
	{"mem.l2_miss_ratio", "ratio"},
	{"mem.l2_queue_cycles_per_kcycle", "cycle/kcycle"},
	{"mem.prefetch_useful_ratio", "ratio"},
	{"kernels.build_ms_p50", "ms"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.overhead_frac", "frac"},
	{"runner.mem_hit_ratio", "ratio"},
	{"runner.tier_hit_ratio", "ratio"},
	{"store.load_us_p50", "us"},
	{"store.load_us_p99", "us"},
	{"store.loads", "count"},
	{"store.store_ms_p50", "ms"},
	{"store.store_ms_p99", "ms"},
	{"store.bytes_written", "B"},
	{"checkpoint.store_ms_p50", "ms"},
	{"checkpoint.writes_per_cell", "count"},
	{"checkpoint.bytes_per_cell", "B"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p99", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.result_ms_p50", "ms"},
	{"service.refused_frac", "frac"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.hop_ms_p90", "ms"},
	{"cluster.forward_ms_p50", "ms"},
	{"cluster.worker_calls_per_job", "count"},
	{"cluster.status_calls_per_job", "count"},
	{"cluster.steals", "count"},
	{"cluster.migrations", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"phase.unaccounted_frac", "frac"},
	{"self.job_frac", "frac"},
	{"self.gen_frac", "frac"},
	{"self.experiments_frac", "frac"},
	{"self.kernels_frac", "frac"},
	{"self.smt_frac", "frac"},
	{"self.service_frac", "frac"},
	{"self.store_frac", "frac"},
	{"self.checkpoint_frac", "frac"},
	{"self.cluster_frac", "frac"},
}

// runCfg is what every workload is given.
type runCfg struct {
	seed    int64
	seconds float64
	dir     string // scratch space for stores, journals and traces
	oracle  *oracle
}

// measurement is a workload's timed phase: its op accounting, its
// end-to-end figures and, from a traced run, its per-layer figures.
type measurement struct {
	led   ledger
	e2e   map[string]float64
	layer map[string]float64
}

func newMeasurement() measurement {
	return measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// setup builds a workload's fresh environment; the i-th set-up of a run
// gets its own directories.
type setup func(cfg runCfg, i int) (env, error)

// env is a set-up workload. measure runs the timed phase on it. A traced
// run passes a tracer; measure then traces every other pass or job and
// leaves the rest untraced, so trace.overhead_frac compares the two
// under the same host conditions.
type env interface {
	measure(cfg runCfg, tr *tracer) (measurement, error)
	close()
}

var workloads = map[string]setup{
	"sim-streams":  setupSimStreams,
	"sim-kernels":  setupSimKernels,
	"cluster-cold": setupClusterCold,
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 7

func main() {
	name := flag.String("workload", "", "workload to run: sim-streams, sim-kernels or cluster-cold")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 25, "nominal length of the timed phase; the work is sized from it")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for stores, journals and traces")
	regen := flag.String("regen-oracle", "", "regenerate the oracle into this file and exit")
	flag.Parse()

	if *regen != "" {
		if err := regenOracle(*regen, runtime.GOMAXPROCS(0)); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, *seconds, *traced == 1, *dir)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run sets the workload up setupRepeats times, measures it on the last
// set-up and assembles the result.
func run(name string, w setup, seed int64, seconds float64, traced bool, dir string) (*result, error) {
	o, err := loadOracle()
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(dir, "run", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg := runCfg{seed: seed, seconds: seconds, dir: scratch, oracle: o}

	var setups []float64
	var e env
	for i := range setupRepeats {
		t0 := time.Now()
		if e, err = w(cfg, i); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			e.close()
		}
	}
	fmt.Printf("%s seed=%d setup_s=%v\n", name, seed, setups)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Start the timed phase from a collected heap, so the set-ups'
	// garbage does not decide when its first collection runs.
	runtime.GC()
	m, err := e.measure(cfg, tr)
	e.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	res := &result{Metrics: map[string]metric{}}
	if traced {
		spans := tr.snapshot()
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeChrome(path, name, spans); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans -> %s\n", len(spans), path)
		selfShares(spans, m.layer)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: m.layer[d.name], Unit: d.unit}
		}
	} else {
		m.e2e["setup_s"] = median(setups)
		m.e2e["peak_rss_mb"] = peakRSSMB()
		m.e2e["goodput_frac"] = m.led.goodput()
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: m.e2e[d.name], Unit: d.unit}
		}
	}
	res.Attempted = m.led.Attempted
	res.Failed = m.led.failures()
	res.Correct = m.led.consistent() && m.led.failures() == 0 && m.led.Attempted > 0
	fmt.Printf("ops: %+v\n", m.led)
	return res, nil
}

// selfShares reports each layer's self time as a share of the time the
// traced jobs took end to end (their root spans). A root's own self time
// ("job") is time no recorded call covered: waiting on a queue or a
// progress poll.
func selfShares(spans []span, layer map[string]float64) {
	self, total := jobSelfTimes(spans)
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		if total > 0 {
			layer["self."+l+"_frac"] = float64(self[l]) / float64(total)
		}
		fmt.Printf("self %-12s %10.1f ms\n", l, ms(self[l]))
	}
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
