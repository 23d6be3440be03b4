// Command sensitivity sweeps the simulated processor's design parameters
// for a chosen benchmark and execution mode, showing which
// microarchitectural limits bind — the "performance limits" exploration
// of the paper's title, with the knobs silicon never exposes.
//
// Usage:
//
//	sensitivity                       # MM tlp-coarse under the default sweep
//	sensitivity -kernel cg -mode tlp-pfetch
//	sensitivity -workers 4            # bound the concurrent sweep points
//
// The sweep is the committed studies/sensitivity.study.json, its kernel,
// mode and size set from the flags and run in process through the study
// engine: each point is a named variant of the canonical kernel cell.
// Sweep points fan out over -workers (default: all cores). Output is
// byte-identical to -workers 1.
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

	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
	"smtexplore/studies"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("sensitivity: ")
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
	fs := flag.NewFlagSet("sensitivity", flag.ContinueOnError)
	kernel := fs.String("kernel", "mm", "benchmark: mm, lu, cg, bt")
	modeName := fs.String("mode", "tlp-coarse", "execution mode")
	size := fs.Int("size", 64, "problem size for mm/lu (ignored otherwise)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent sweep points (must be >= 1)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "sensitivity: invalid -workers %d (must be >= 1)\n", *workers)
		fs.Usage()
		return errUsage
	}

	switch *kernel {
	case "mm", "lu":
	case "cg", "bt":
		*size = 0
	default:
		fmt.Fprintf(os.Stderr, "unknown kernel %q\n", *kernel)
		fs.Usage()
		return errUsage
	}
	mode, err := spec.ParseMode(*modeName)
	if err != nil || *modeName == "" {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeName)
		fs.Usage()
		return errUsage
	}

	s, err := studies.Select("sensitivity")
	if err != nil {
		return err
	}
	sw := &s.Sweeps[0]
	sw.Title = fmt.Sprintf("µarchitecture sensitivity — %s / %s", *kernel, mode)
	sw.Kernels, sw.Modes, sw.Sizes = []string{*kernel}, []string{mode.String()}, []int{*size}
	res, err := studies.Run(context.Background(), s, execute.NewLocal(nil), *workers)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Tables[0].Text)
	return nil
}
