// Command loadgen drives an smtd daemon or cluster coordinator with an
// open-loop multi-tenant load scenario and reports per-tenant SLO
// statistics: latency percentiles, goodput, shed counts and a fairness
// ratio. Chaos phases (SIGKILL via pidfile, fault-plan arming over
// POST /v1/faults) run on the scenario's timeline, so the same tool
// proves both isolation under contention and survival under failure.
//
// Each job is followed over the target's SSE event stream, and its
// latency runs from the submit to the receipt of its end event.
// Against an HA coordinator pair, -addr takes both addresses
// ("a:1,b:2"): submissions and streams retry across transport errors
// and follow X-Cluster-Leader redirects, so killing the active
// coordinator mid-run shows up as latency, not failed jobs. The
// post-run report captures the pair's failover latency and adoption
// counters.
//
// Usage:
//
//	loadgen -scenario s.json -addr 127.0.0.1:8377 -out report.json
//	loadgen -scenario s.json -addr 127.0.0.1:8370,127.0.0.1:8371 ...
//	loadgen -scenario s.json -addr ... -baseline solo.json \
//	    -assert goodput-frac:light:0.8 -assert p99-factor:light:2.0
//
// Assertions (repeatable; any failure exits 1):
//
//	done-min:TENANT:N              at least N jobs done
//	no-failed:TENANT               zero failed jobs
//	shed-cause-min:TENANT:CAUSE:N  at least N sheds with CAUSE
//	goodput-frac:TENANT:F          goodput >= F x baseline's (needs -baseline)
//	p99-factor:TENANT:F            p99 <= F x baseline's (needs -baseline)
//
// The -bench-out flag additionally writes the report in the repo's
// smtexplore-bench/v1 shape so a load run can be committed as a
// BENCH_NNNN.json baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"

	"smtexplore/internal/loadgen"
	"smtexplore/internal/tenant"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		if errors.Is(err, errAssert) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errAssert marks SLO assertion failures (exit 1, distinct from usage
// or runtime errors).
var errAssert = errors.New("assertions failed")

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	scenarioPath := fs.String("scenario", "", "scenario JSON file (required)")
	addr := fs.String("addr", "127.0.0.1:8377", "smtd or coordinator address; comma-separate an HA pair for failover")
	out := fs.String("out", "", "write the report JSON here (empty: stdout summary only)")
	benchOut := fs.String("bench-out", "", "write the report in smtexplore-bench/v1 shape here")
	baselinePath := fs.String("baseline", "", "baseline report JSON for relative assertions (a solo run)")
	seed := fs.Uint64("seed", 0, "override the scenario's seed (0: keep the scenario's)")
	duration := fs.Duration("duration", 0, "override the scenario's duration (0: keep the scenario's)")
	var assertSpecs multiFlag
	fs.Var(&assertSpecs, "assert", "SLO assertion (repeatable; see package docs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioPath == "" {
		fs.Usage()
		return fmt.Errorf("missing -scenario")
	}
	data, err := os.ReadFile(*scenarioPath)
	if err != nil {
		return err
	}
	sc, err := loadgen.ParseScenario(data)
	if err != nil {
		return err
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *duration != 0 {
		sc.Duration = tenant.Duration(*duration)
	}
	var asserts []loadgen.Assertion
	for _, s := range assertSpecs {
		a, err := loadgen.ParseAssertion(s)
		if err != nil {
			return err
		}
		asserts = append(asserts, a)
	}
	var baseline *loadgen.Report
	if *baselinePath != "" {
		if baseline, err = loadgen.LoadReport(*baselinePath); err != nil {
			return err
		}
	}

	r := &loadgen.Runner{Target: *addr, Log: os.Stderr}
	rep, err := r.Run(ctx, sc)
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			return err
		}
	}
	if *benchOut != "" {
		b, err := rep.BenchJSON(gitCommit())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*benchOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if errs := rep.Check(asserts, baseline); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "loadgen: ASSERT FAIL:", e)
		}
		return errAssert
	}
	if len(asserts) > 0 {
		fmt.Printf("loadgen: all %d assertions passed\n", len(asserts))
	}
	return nil
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func writeJSONFile(path string, rep *loadgen.Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitCommit best-effort resolves HEAD for the bench-shape output.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
