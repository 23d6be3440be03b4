// Command paper regenerates the paper's evaluation from the committed
// specs in studies/: Figures 1–5, Table 1, the ablations and the
// sensitivity sweep, or scores the run against the paper's claims.
//
// Usage:
//
//	paper                          # every committed spec
//	paper fig3                     # one spec: fig1 … fig5, table1, ablations, sensitivity
//	paper fig2a fig5cg sync        # single sweeps of those specs
//	paper -sizes 16,32 fig3 fig4   # override the mm and lu problem sizes
//	paper -score                   # only the verdict table against the paper's claims
//	paper -store cells/ fig1       # reuse the disk-backed result store
//	paper -observe obs/ -observe-match tlp-fine fig3
//
// Every name is resolved by studies.Select, and all of them run as one
// plan through the study engine over an in-process backend, so a cell
// shared by several tables simulates once. -sizes replaces the sizes of
// the mm and lu figure sweeps and gives the sensitivity sweep, whose
// rows share one baseline, the last of them; the ablation and selective
// tables keep theirs. Simulation cells fan out over -workers
// (default: all cores); output is byte-identical to -workers 1. With
// -observe, matching cells additionally write pipeline traces,
// occupancy series and metrics snapshots into the directory (those
// cells bypass the cache — a cache hit has nothing to trace). A grid
// the committed specs do not hold is an edited copy of a spec, run with
// `smtctl study run -f`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/report"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/synth"
	"smtexplore/studies"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// parseSizes parses a comma-separated size list ("32,64").
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	sizes := fs.String("sizes", "", "comma-separated mm/lu sizes for the figure and sensitivity sweeps (default: the committed sizes)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and smtctl")
	observeDir := fs.String("observe", "", "write per-cell trace/occupancy/metrics artifacts into this directory")
	match := fs.String("observe-match", "", "observe only cells whose label contains this substring")
	score := fs.Bool("score", false, "print only the verdict table scoring the run against the paper's claims")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: paper [flags] [name ...]\n\nnames: fig1 … fig5, table1, ablations, sensitivity (committed specs) or one of their sweeps; none runs every spec")
		fs.PrintDefaults()
	}
	usage := func(format string, a ...any) error {
		fmt.Fprintf(fs.Output(), "paper: "+format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		return usage("invalid -workers %d (must be >= 1)", *workers)
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return usage("%v", err)
	}
	s, err := studies.Select(fs.Args()...)
	if err != nil {
		return usage("%v", err)
	}
	studies.SetSizes(s, ns)

	local := &execute.Local{Cache: runner.NewCache()}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, 0)
		if err != nil {
			return err
		}
		local.Cache.WithTier(st)
	}
	if *observeDir != "" {
		local.Observe = &experiments.Observe{Dir: *observeDir}
		if *match != "" {
			local.Observe.Match = experiments.MatchSubstring(*match)
		}
	}
	res, err := studies.Run(context.Background(), s, local, *workers)
	if err != nil {
		return err
	}
	if *score {
		d, err := synth.CollectData(res.Plan, res.Results)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report.Format(report.Evaluate(d)))
		return nil
	}
	for _, t := range res.Tables {
		fmt.Fprint(out, t.Text)
	}
	return nil
}
