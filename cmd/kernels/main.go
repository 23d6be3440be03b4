// Command kernels regenerates the benchmark experiments of Section 5 of
// the paper: the Figure 3 (Matrix Multiplication), Figure 4 (LU
// decomposition) and Figure 5 (NAS CG and BT) panel groups, and the
// Table 1 instruction-mix breakdown.
//
// Usage:
//
//	kernels -bench mm         # Figure 3
//	kernels -bench lu         # Figure 4
//	kernels -bench cg         # Figure 5, CG panels
//	kernels -bench bt         # Figure 5, BT panels
//	kernels -bench all        # all figures
//	kernels -table 1          # Table 1
//	kernels -sizes 32,64      # override the MM/LU problem sizes
//	kernels -workers 4        # bound the concurrent simulation cells
//	kernels -bench mm -observe obs/        # per-cell trace/occupancy/metrics
//	kernels -observe obs/ -observe-match tlp-fine
//
// The figures and Table 1 are the committed studies/fig3–fig5 and
// table1 specs, run in process through the study engine as one plan
// (-sizes overrides the mm and lu sizes).
// Simulation cells fan out over -workers (default: all cores); one
// result cache spans the invocation. Output is byte-identical to
// -workers 1. With -observe, matching cells additionally write pipeline
// traces, occupancy series and metrics snapshots into the directory
// (those cells bypass the cache — a cache hit has nothing to trace).
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
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
	"smtexplore/internal/study/execute"
	"smtexplore/studies"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("kernels: ")
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

// observeFlags assembles the optional artifact sink shared by the
// experiment CLIs.
func observeFlags(fs *flag.FlagSet) func() *experiments.Observe {
	dir := fs.String("observe", "", "write per-cell trace/occupancy/metrics artifacts into this directory")
	match := fs.String("observe-match", "", "observe only cells whose label contains this substring")
	return func() *experiments.Observe {
		if *dir == "" {
			return nil
		}
		ob := &experiments.Observe{Dir: *dir}
		if *match != "" {
			ob.Match = experiments.MatchSubstring(*match)
		}
		return ob
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kernels", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark figure to regenerate: mm, lu, cg, bt or all")
	table := fs.Int("table", 0, "table to regenerate (1)")
	sizes := fs.String("sizes", "", "comma-separated MM/LU problem sizes (default: the paper's 32,64,128)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	observe := observeFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "kernels: invalid -workers %d (must be >= 1)\n", *workers)
		fs.Usage()
		return errUsage
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	cache := runner.NewCache()
	if *storeDir != "" {
		st, err := store.Open(*storeDir, 0)
		if err != nil {
			return err
		}
		cache.WithTier(st)
	}

	if *bench == "" && *table == 0 {
		*bench = "all"
		*table = 1
	}

	figures := map[string][]string{
		"mm": {"fig3"}, "lu": {"fig4"}, "cg": {"fig5cg"}, "bt": {"fig5bt"},
		"all": {"fig3", "fig4", "fig5cg", "fig5bt"},
	}
	sweeps, ok := figures[*bench]
	if !ok && *bench != "" {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	switch *table {
	case 0:
	case 1:
		sweeps = append(sweeps, "table1")
	default:
		return fmt.Errorf("unknown table %d", *table)
	}
	s, err := studies.Select(sweeps...)
	if err != nil {
		return err
	}
	studies.SetSizes(s, ns)
	res, err := studies.Run(context.Background(), s, &execute.Local{Cache: cache, Observe: observe()}, *workers)
	if err != nil {
		return err
	}
	for _, t := range res.Tables {
		fmt.Fprint(out, t.Text)
	}
	return nil
}
