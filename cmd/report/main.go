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
// The figure grids, Table 1 and the §3.1/§3.2 ablations are the sweeps
// of the committed studies/*.study.json specs, run through the study
// engine as one plan (Figure 2(c) and the partitioning contrast are not
// scored). Simulation cells fan out over -workers (default: all cores);
// one result cache spans the whole collection. Output is byte-identical
// to -workers 1.
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

	sweeps := []string{"fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5cg", "fig5bt", "table1", "sync", "span", "selective"}
	var mmluSizes []int
	if *quick {
		sweeps, mmluSizes = sweeps[3:8], []int{32, 64}
	}
	if ns, err := parseSizes(*sizes); err != nil {
		return err
	} else if ns != nil {
		mmluSizes = ns
	}
	s, err := studies.Select(sweeps...)
	if err != nil {
		return err
	}
	studies.SetSizes(s, mmluSizes)
	res, err := studies.Run(context.Background(), s, &execute.Local{Cache: cache}, *workers)
	if err != nil {
		return err
	}
	d, err := synth.CollectData(res.Plan, res.Results)
	if err != nil {
		return err
	}

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
