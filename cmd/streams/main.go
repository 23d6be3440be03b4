// Command streams regenerates the synthetic-stream experiments of
// Section 4 of the paper: Figure 1 (average CPI per stream under TLP×ILP
// execution modes) and Figure 2 (pairwise co-execution slowdown factors).
//
// Usage:
//
//	streams -fig 1          # Figure 1
//	streams -fig 2a         # FP × FP slowdown matrix
//	streams -fig 2b         # int × int slowdown matrix
//	streams -fig 2c         # fp-arith × int-arith matrix
//	streams -fig all        # everything
//	streams -workers 4      # bound the concurrent simulation cells
//	streams -fig 1 -observe obs/ -observe-match fadd
//
// The figures are the sweeps of the committed studies/fig1.study.json
// and fig2.study.json, run in process through the study engine.
// Simulation cells fan out over -workers (default: all cores), and cells
// shared between figures simulate once. Output is byte-identical to
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

	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
	"smtexplore/internal/streams"
	"smtexplore/internal/study/execute"
	"smtexplore/studies"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("streams: ")
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
	fs := flag.NewFlagSet("streams", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 1, 2a, 2b, 2c or all")
	full := fs.Bool("full", false, "Figure 1 over all stream kinds, not just the paper's selection")
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
		fmt.Fprintf(os.Stderr, "streams: invalid -workers %d (must be >= 1)\n", *workers)
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

	var sweeps []string
	switch *fig {
	case "1", "2a", "2b", "2c":
		sweeps = []string{"fig" + *fig}
	case "all":
		sweeps = []string{"fig1", "fig2a", "fig2b", "fig2c"}
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}
	s, err := studies.Select(sweeps...)
	if err != nil {
		return err
	}
	if *full && s.Sweeps[0].Name == "fig1" {
		s.Sweeps[0].Streams = nil
		for _, k := range streams.All() {
			s.Sweeps[0].Streams = append(s.Sweeps[0].Streams, k.String())
		}
	}
	res, err := studies.Run(context.Background(), s, &execute.Local{Cache: cache, Observe: observe()}, *workers)
	if err != nil {
		return err
	}
	for _, t := range res.Tables {
		fmt.Fprint(out, t.Text)
	}
	return nil
}
