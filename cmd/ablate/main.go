// Command ablate runs the design-choice ablation studies of the
// reproduction: the §3.1 synchronisation-primitive comparison (raw spin
// vs pause-augmented spin vs halt), the §3.2 precomputation-span sweep,
// the §5.3 static-vs-shared resource-partitioning contrast and §3.1
// selective halting.
//
// Usage:
//
//	ablate -study sync|span|partition|selective|all
//	ablate -workers 4      # bound the concurrent simulation cells
//	ablate -store cells/   # reuse the disk-backed result store
//
// The studies are the sweeps of the committed studies/ablations.study.json,
// run in process through the study engine as one plan, so a cell shared
// by several studies (the default MM prefetch cell, which is also a
// Figure 3 cell) simulates once. Simulation cells fan out over -workers
// (default: all cores). Output is byte-identical to -workers 1.
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
	log.SetPrefix("ablate: ")
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	study := fs.String("study", "all", "study to run: sync, span, partition, selective or all")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "ablate: invalid -workers %d (must be >= 1)\n", *workers)
		fs.Usage()
		return errUsage
	}
	sweeps := []string{*study}
	switch *study {
	case "all":
		sweeps = []string{"sync", "span", "partition", "selective"}
	case "sync", "span", "partition", "selective":
	default:
		fmt.Fprintf(os.Stderr, "unknown study %q\n", *study)
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

	s, err := studies.Select(sweeps...)
	if err != nil {
		return err
	}
	res, err := studies.Run(context.Background(), s, &execute.Local{Cache: cache}, *workers)
	if err != nil {
		return err
	}
	for _, t := range res.Tables {
		fmt.Fprint(out, t.Text)
	}
	return nil
}
