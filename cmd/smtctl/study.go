package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"smtexplore/internal/store"
	"smtexplore/internal/study"
	"smtexplore/internal/study/execute"
	"smtexplore/internal/study/spec"
)

// study dispatches the study subcommands. run compiles a declarative
// spec into a deduped cell DAG and executes it; status and report read
// back the state a run persisted, so neither needs a live daemon.
func (c client) study(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: smtctl study run|status|report [args]")
		return errUsage
	}
	switch args[0] {
	case "run":
		return c.studyRun(args[1:])
	case "status":
		return c.studyStatus(args[1:])
	case "report":
		return c.studyReport(args[1:])
	}
	fmt.Fprintf(os.Stderr, "smtctl: unknown study command %q\n", args[0])
	return errUsage
}

// studyRun parses the spec, picks a backend and runs the engine. The
// local backend simulates in-process against an on-disk store (so a
// re-run over the same store is warm); the daemon backend submits one
// job to the -addr smtd or coordinator and inherits its cluster-wide
// cache. Failed cells exit 1 — a partial study is visible in CI, not
// just in the report appendix.
func (c client) studyRun(args []string) error {
	fs := flag.NewFlagSet("smtctl study run", flag.ContinueOnError)
	file := fs.String("f", "", "study spec file, JSON or Markdown (\"-\": stdin)")
	dir := fs.String("dir", "study-out", "state root; the run persists under <dir>/<name>/")
	via := fs.String("via", "local", "backend: local (in-process) or daemon (the -addr smtd/coordinator, or the -server pair)")
	storeDir := fs.String("store", "", "local backend result store (default <dir>/<name>/store)")
	workers := fs.Int("workers", 0, "local backend simulation workers (0: one per CPU)")
	printReport := fs.Bool("report", false, "print the full Markdown report instead of the summary")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if *file == "" {
		return usage(fs, "study run needs -f <spec>")
	}
	var data []byte
	var err error
	if *file == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*file)
	}
	if err != nil {
		return err
	}
	s, err := spec.Parse(data)
	if err != nil {
		return err
	}

	var backend execute.Backend
	switch *via {
	case "local":
		sd := *storeDir
		if sd == "" {
			sd = filepath.Join(study.StateDir(*dir, s.Name), "store")
		}
		st, err := store.Open(sd, 0)
		if err != nil {
			return err
		}
		backend = execute.NewLocal(st)
	case "daemon":
		backend = &execute.Remote{Client: c.api}
	default:
		return usage(fs, "unknown backend %q (want local or daemon)", *via)
	}

	res, err := study.Run(c.ctx, s, study.RunConfig{Backend: backend, Dir: *dir, Workers: *workers})
	if err != nil {
		return err
	}
	if *printReport {
		fmt.Fprint(c.out, res.Report)
	} else {
		printSummary(c.out, &res.Summary, *dir)
	}
	if res.Summary.Failed > 0 {
		return fmt.Errorf("%w: study %s: %d cells failed", errJobFailed, res.Summary.Name, res.Summary.Failed)
	}
	return nil
}

// printSummary is the human-facing run recap: what ran, what was warm,
// and where the artifacts landed.
func printSummary(out io.Writer, sum *study.Summary, dir string) {
	fmt.Fprintf(out, "study %s: %s (backend %s)\n", sum.Name, sum.State, sum.Backend)
	fmt.Fprintf(out, "  cells: %d grid points -> %d unique, %d warm, %d cold, %d skipped\n",
		sum.GridPoints, sum.UniqueCells, sum.Warm, sum.ColdAdmitted, sum.Skipped)
	if sum.Simulated >= 0 {
		fmt.Fprintf(out, "  simulated: %d\n", sum.Simulated)
	}
	if sum.Failed > 0 {
		fmt.Fprintf(out, "  failed: %d\n", sum.Failed)
	}
	fmt.Fprintf(out, "  report: %s\n", filepath.Join(study.StateDir(dir, sum.Name), "report.md"))
}

func studyNameArg(fs *flag.FlagSet, what string) (string, error) {
	if fs.NArg() != 1 {
		return "", usage(fs, "study %s needs exactly one study name", what)
	}
	return fs.Arg(0), nil
}

func (c client) studyStatus(args []string) error {
	fs := flag.NewFlagSet("smtctl study status", flag.ContinueOnError)
	dir := fs.String("dir", "study-out", "state root the study ran with")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	name, err := studyNameArg(fs, "status")
	if err != nil {
		return err
	}
	sum, err := study.LoadSummary(*dir, name)
	if err != nil {
		return err
	}
	return c.printJSON(sum)
}

func (c client) studyReport(args []string) error {
	fs := flag.NewFlagSet("smtctl study report", flag.ContinueOnError)
	dir := fs.String("dir", "study-out", "state root the study ran with")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	name, err := studyNameArg(fs, "report")
	if err != nil {
		return err
	}
	md, err := study.LoadReport(*dir, name)
	if err != nil {
		return err
	}
	_, err = io.WriteString(c.out, md)
	return err
}
