// Command report regenerates the complete evaluation and scores the
// reproduction against the paper's quantitative claims, printing a
// verdict table (the generated counterpart of EXPERIMENTS.md's summary).
//
// Usage:
//
//	report            # full collection (several minutes of simulation)
//	report -quick     # smaller kernel instances, streams/ablations skipped
//	report -sizes 16,32  # override the quick/full MM and LU problem sizes
//	report -verbose   # additionally print every figure and table
//	report -workers 4 # bound the concurrent simulation cells
//
// The figure grids run the committed studies/fig*.study.json sweeps
// through the study engine (Figure 2(c) is not scored); Table 1 and the
// ablations run through internal/report. Simulation cells fan out over
// -workers (default: all cores); one result cache spans the whole
// collection. Output is byte-identical to -workers 1.
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
	log.SetPrefix("report: ")
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
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced collection: small kernels, no streams/ablations")
	sizes := fs.String("sizes", "", "comma-separated MM/LU problem sizes (overrides the -quick defaults)")
	verbose := fs.Bool("verbose", false, "also print the collected figures and tables")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "report: invalid -workers %d (must be >= 1)\n", *workers)
		fs.Usage()
		return errUsage
	}

	cache := runner.NewCache()
	if *storeDir != "" {
		st, err := store.Open(*storeDir, 0)
		if err != nil {
			return err
		}
		cache.WithTier(st)
	}

	ctx := context.Background()
	sweeps := []string{"fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5cg", "fig5bt"}
	var mmluSizes []int
	if *quick {
		sweeps, mmluSizes = sweeps[3:], []int{32, 64}
	}
	if ns, err := parseSizes(*sizes); err != nil {
		return err
	} else if ns != nil {
		mmluSizes = ns
	}
	s, err := studies.Figures(sweeps...)
	if err != nil {
		return err
	}
	studies.SetSizes(s, mmluSizes)
	res, err := studies.Run(ctx, s, &execute.Local{Cache: cache}, *workers)
	if err != nil {
		return err
	}
	d, err := synth.CollectData(res.Plan, res.Results)
	if err != nil {
		return err
	}
	rest, err := report.Collect(ctx, report.Options{SkipAblations: *quick, Workers: *workers, Cache: cache})
	if err != nil {
		return err
	}
	d.Table1, d.Sync, d.Span, d.Selective = rest.Table1, rest.Sync, rest.Span, rest.Selective

	if *verbose {
		if d.Fig1 != nil {
			fmt.Fprint(out, experiments.FormatFig1(d.Fig1))
			fmt.Fprintln(out)
		}
		fmt.Fprint(out, experiments.FormatKernelFigure("Figure 3 — Matrix Multiplication", d.MM))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatKernelFigure("Figure 4 — LU decomposition", d.LU))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatKernelFigure("Figure 5 — NAS CG", d.CG))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatKernelFigure("Figure 5 — NAS BT", d.BT))
		fmt.Fprintln(out)
		fmt.Fprint(out, experiments.FormatTable1(d.Table1))
		fmt.Fprintln(out)
	}

	fmt.Fprint(out, report.Format(report.Evaluate(d)))
	return nil
}
