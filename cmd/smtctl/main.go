// Command smtctl is the client for the smtd simulation daemon: it
// submits cell batches, watches progress over the daemon's SSE stream,
// and fetches results — the scriptable path CI uses to smoke-test the
// service end to end.
//
// Usage:
//
//	smtctl [-addr host:port] <command> [args]
//	smtctl -server a,b <command> [args]      # HA pair: rotate on refusal, follow leader redirects
//
//	smtctl submit -stream fadd,iload -ilp max -window 120000   # prints the job ID
//	smtctl submit -kernel mm -mode tlp-fine -size 64
//	smtctl submit -kernel lu -size 64 -deadline 90s -priority 5
//	smtctl submit -f batch.json              # raw batch ("-" reads stdin), e.g. variant or profile cells
//	smtctl status j0001                      # job status JSON
//	smtctl wait j0001                        # stream events until terminal
//	smtctl result j0001 [-cell 0]            # results (terminal jobs)
//	smtctl cancel j0001                      # abort
//	smtctl cluster                           # cluster topology (coordinators only)
//	smtctl study run -f fig1.study.json      # compile + execute a declarative study
//	smtctl study status fig1                 # persisted study summary JSON
//	smtctl study report fig1                 # persisted Markdown report
//
// Every command works identically against a single smtd and a cluster
// coordinator — the coordinator serves the same job API — except
// cluster, which only a coordinator answers.
//
// wait exits 0 only when the job completed: a failed job prints the
// failing cell's error and exits 1; a cancelled job prints the
// cancellation and exits 3 — silence is never a masked failure.
// SIGINT/SIGTERM cancel promptly, even mid-backoff during a retry wait.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/cluster"
	"smtexplore/internal/service"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

// errJobFailed and errJobCancelled mark terminal job outcomes that must
// not exit 0: the details were already printed, main only maps the exit
// status (1 and 3 respectively).
var (
	errJobFailed    = errors.New("job failed")
	errJobCancelled = errors.New("job cancelled")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smtctl: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case errors.Is(err, errUsage):
			os.Exit(2)
		case errors.Is(err, errJobFailed):
			log.Print(err)
			os.Exit(1)
		case errors.Is(err, errJobCancelled):
			log.Print(err)
			os.Exit(3)
		}
		log.Fatal(err)
	}
}

func usage(fs *flag.FlagSet, format string, v ...any) error {
	fmt.Fprintf(os.Stderr, "smtctl: "+format+"\n", v...)
	fs.Usage()
	return errUsage
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smtctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "smtd or coordinator address (host:port)")
	server := fs.String("server", "", "comma-separated server addresses for HA failover; overrides -addr (tries the next on refusal, follows X-Cluster-Leader redirects)")
	maxRetries := fs.Int("max-retries", 5, "retries for transient failures (429/502/503/504, dropped connections); 0 disables")
	timeout := fs.Duration("timeout", 0, "per-request budget; wait re-dials the event stream when it is silent this long (0: none)")
	tenantName := fs.String("tenant", "", "submit as this tenant (the batch's tenant field; empty: the daemon's default tenant)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: smtctl [-addr host:port | -server a,b] [-max-retries n] [-timeout d] [-tenant name] submit|status|wait|result|cancel|cluster|study [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usage(fs, "missing command")
	}
	addrs := *server
	if addrs == "" {
		addrs = *addr
	}
	c := client{
		ctx:     ctx,
		api:     api.NewClient(api.NewEndpoints(addrs, "127.0.0.1:8377"), *maxRetries, *timeout, true),
		out:     out,
		retries: *maxRetries,
		timeout: *timeout,
		tenant:  *tenantName,
	}
	switch rest[0] {
	case "submit":
		return c.submit(rest[1:])
	case "status":
		return c.status(rest[1:])
	case "wait":
		return c.wait(rest[1:])
	case "result":
		return c.result(rest[1:])
	case "cancel":
		return c.cancel(rest[1:])
	case "cluster":
		return c.cluster(rest[1:])
	case "study":
		return c.study(rest[1:])
	}
	return usage(fs, "unknown command %q", rest[0])
}

type client struct {
	ctx context.Context
	// api is the job-API client: -server failover, -max-retries and the
	// per-request -timeout, with backpressure (429) retried too.
	api *api.Client
	out io.Writer
	// retries and timeout also pace wait's re-dials of a broken or
	// silent event stream.
	retries int
	timeout time.Duration
	// tenant, when non-empty, rides every submission in its tenant field.
	tenant string
}

// printJSON writes v indented, the way every command shows a response.
func (c client) printJSON(v any) error {
	enc := json.NewEncoder(c.out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// submit builds a one-cell batch from flags (or reads a raw batch from
// -f) and prints the assigned job ID.
func (c client) submit(args []string) error {
	fs := flag.NewFlagSet("smtctl submit", flag.ContinueOnError)
	stream := fs.String("stream", "", "stream cell: comma-separated stream kinds to co-run (e.g. fadd,iload)")
	ilp := fs.String("ilp", "max", "stream cell ILP degree: min, med or max")
	window := fs.Uint64("window", 0, "stream cell measurement window in cycles (0: the figures' default)")
	kernel := fs.String("kernel", "", "kernel cell: mm, lu, cg or bt")
	mode := fs.String("mode", "serial", "kernel cell execution mode")
	size := fs.Int("size", 0, "kernel cell problem size (mm/lu matrix dimension)")
	file := fs.String("f", "", "submit a raw JSON batch from this file (\"-\": stdin); variant and profile cells are submitted this way, whole figures and tables with study run -f studies/<name>.study.json")
	observe := fs.Bool("observe", false, "request per-cell obs artifacts (stream/kernel cells)")
	deadline := fs.String("deadline", "", "fail the job with an explicit cause if not done within this duration (e.g. 90s)")
	priority := fs.Int("priority", 0, "queue priority: higher runs first and may preempt lower-priority checkpointable jobs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	var req service.SubmitRequest
	switch {
	case *file != "":
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
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("parsing %s: %w", *file, err)
		}
	case *stream != "":
		var cell service.CellSpec
		cell.Type = service.TypeStream
		cell.Window = *window
		cell.Observe = *observe
		for _, k := range strings.Split(*stream, ",") {
			cell.Streams = append(cell.Streams, service.StreamSpec{Kind: strings.TrimSpace(k), ILP: *ilp})
		}
		req.Cells = []service.CellSpec{cell}
	case *kernel != "":
		req.Cells = []service.CellSpec{{
			Type: service.TypeKernel, Kernel: *kernel, Mode: *mode, Size: *size, Observe: *observe,
		}}
	default:
		return usage(fs, "submit needs one of -stream, -kernel or -f")
	}
	// Flags layer over -f batches too, so a scripted batch can still get a
	// per-invocation deadline or priority.
	if *deadline != "" {
		req.Deadline = *deadline
	}
	if *priority != 0 {
		req.Priority = *priority
	}

	if c.tenant != "" {
		req.Tenant = c.tenant
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	// The idempotency key is the content hash of the batch: if a retried
	// submit reaches a daemon that already accepted the first attempt,
	// the daemon hands back the live job instead of running it twice.
	id, err := c.api.Submit(c.ctx, req, fmt.Sprintf("%x", sha256.Sum256(body)))
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, id)
	return nil
}

func jobArg(fs *flag.FlagSet, what string) (string, error) {
	if fs.NArg() != 1 {
		return "", usage(fs, "%s needs exactly one job ID", what)
	}
	return fs.Arg(0), nil
}

func (c client) status(args []string) error {
	fs := flag.NewFlagSet("smtctl status", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	id, err := jobArg(fs, "status")
	if err != nil {
		return err
	}
	st, err := c.api.Status(c.ctx, id)
	if err != nil {
		return err
	}
	return c.printJSON(st)
}

// wait follows the job's SSE stream until the terminal event, printing
// per-cell progress, and maps the outcome onto the exit status: done →
// 0, failed → 1 (with the failing cell's error), cancelled → 3. A cell
// error is surfaced the moment its event arrives, not at the end.
//
// A dropped stream is not an error: wait tracks the id of the last
// event it saw and re-dials after it, so the daemon replays exactly the
// missed events and the outcome mapping is unaffected (up to
// -max-retries re-dials). A stream silent for -timeout is re-dialled the
// same way.
func (c client) wait(args []string) error {
	fs := flag.NewFlagSet("smtctl wait", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	id, err := jobArg(fs, "wait")
	if err != nil {
		return err
	}
	last := -1
	for try := 0; ; try++ {
		// The stream may legitimately outlive -timeout, so it has no
		// deadline; instead an idle watchdog, re-armed by every event,
		// cancels it when the stream goes silent for -timeout.
		wctx, wcancel := context.WithCancel(c.ctx)
		var idle *time.Timer
		if c.timeout > 0 {
			idle = time.AfterFunc(c.timeout, wcancel)
		}
		end, err := c.api.Follow(wctx, id, last, func(ev service.Event) {
			last = ev.Seq
			if idle != nil {
				idle.Reset(c.timeout)
			}
			if ev.Type == "cell" {
				c.printCell(ev, *quiet)
			}
		})
		if idle != nil {
			idle.Stop()
		}
		idled := wctx.Err() != nil && c.ctx.Err() == nil
		wcancel()
		switch {
		case err == nil:
			return c.outcome(id, end, *quiet)
		case c.ctx.Err() != nil, errors.Is(err, api.ErrJobNotFound):
			return err
		case idled:
			err = fmt.Errorf("no events for %v (idle watchdog)", c.timeout)
		}
		if try >= c.retries {
			return fmt.Errorf("event stream interrupted: %v", err)
		}
		log.Printf("wait %s: %v; retrying from event %d (%d/%d)", id, err, last, try+1, c.retries)
	}
}

// printCell reports one cell event; a cell error is surfaced the moment
// its event arrives, even under -q.
func (c client) printCell(ev service.Event, quiet bool) {
	switch {
	case ev.State == service.CellFailed:
		fmt.Fprintf(os.Stderr, "smtctl: cell %d (%s) failed: %s\n", ev.Cell, ev.Label, ev.Error)
	case quiet:
	case (ev.State == service.CellPreempted || ev.State == service.CellResumed) && ev.Error != "":
		// Preemption/resume events carry a detail message (why the
		// cell yielded, how many cycles the checkpoint saved).
		fmt.Fprintf(c.out, "cell %d (%s): %s: %s\n", ev.Cell, ev.Label, ev.State, ev.Error)
	default:
		fmt.Fprintf(c.out, "cell %d (%s): %s\n", ev.Cell, ev.Label, ev.State)
	}
}

// outcome maps the end event onto wait's result.
func (c client) outcome(id string, end service.Event, quiet bool) error {
	switch end.State {
	case service.JobDone:
		if !quiet {
			fmt.Fprintf(c.out, "%s done\n", id)
		}
		return nil
	case service.JobCancelled:
		return fmt.Errorf("%w: %s: %s", errJobCancelled, id, end.Error)
	default:
		return fmt.Errorf("%w: %s: %s", errJobFailed, id, end.Error)
	}
}

func (c client) result(args []string) error {
	fs := flag.NewFlagSet("smtctl result", flag.ContinueOnError)
	cell := fs.Int("cell", -1, "fetch one cell's result instead of the whole job")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	id, err := jobArg(fs, "result")
	if err != nil {
		return err
	}
	if *cell < 0 {
		res, err := c.api.Result(c.ctx, id)
		if err != nil {
			return err
		}
		return c.printJSON(res)
	}
	res, err := c.api.CellResult(c.ctx, id, *cell)
	if err != nil {
		return err
	}
	return c.printJSON(res)
}

func (c client) cancel(args []string) error {
	fs := flag.NewFlagSet("smtctl cancel", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	id, err := jobArg(fs, "cancel")
	if err != nil {
		return err
	}
	// Cancelling an already-cancelled job is a no-op server-side, so the
	// DELETE is safe to retry.
	st, err := c.api.Cancel(c.ctx, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s %s\n", st.ID, st.State)
	return nil
}

// cluster prints a coordinator's fleet topology: one line per worker
// plus the routing counters. A plain smtd answers 404 here — the one
// place the coordinator and daemon APIs differ.
func (c client) cluster(args []string) error {
	fs := flag.NewFlagSet("smtctl cluster", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw topology JSON")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() != 0 {
		return usage(fs, "cluster takes no arguments")
	}
	var top cluster.Topology
	if err := c.api.GetJSON(c.ctx, "/v1/cluster", &top); err != nil {
		return err
	}
	if *asJSON {
		return c.printJSON(top)
	}
	fmt.Fprintf(c.out, "%-12s %-21s %-6s %11s %12s %8s\n", "worker", "addr", "alive", "outstanding", "qwait-ewma", "hb-age")
	for _, w := range top.Workers {
		alive := "yes"
		if !w.Alive {
			alive = "no"
		}
		hb := "-" // never heard from (seed workers before the first probe)
		if w.LastHeartbeatAgeSeconds >= 0 {
			hb = fmt.Sprintf("%.1fs", w.LastHeartbeatAgeSeconds)
		}
		fmt.Fprintf(c.out, "%-12s %-21s %-6s %11d %11.3fs %8s\n",
			w.Name, w.Addr, alive, w.Outstanding, w.QueueWaitEWMASeconds, hb)
	}
	fmt.Fprintf(c.out, "live %d/%d · vnodes %d · forwarded %d · steals %d · recovered %d · lost %d\n",
		top.Live, len(top.Workers), top.Vnodes, top.CellsForwarded, top.Steals, top.JobsRecovered, top.WorkersLost)
	if top.Role != "" {
		leader := top.LeaderAddr
		if leader == "" {
			leader = "unknown"
		}
		fmt.Fprintf(c.out, "ha: role %s · leader %s · lease term %d · journal seq %d · standby lag %dB\n",
			top.Role, leader, top.LeaseTerm, top.JournalSeq, top.StandbyLagBytes)
		fmt.Fprintf(c.out, "ha: promotions %d · demotions %d · jobs adopted %d",
			top.Promotions, top.Demotions, top.JobsAdopted)
		if top.FailoverLatencySeconds > 0 {
			fmt.Fprintf(c.out, " · last failover %.3fs", top.FailoverLatencySeconds)
		}
		fmt.Fprintln(c.out)
	}
	return nil
}
