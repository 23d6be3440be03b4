// Command smtd is the simulation-as-a-service daemon: it exposes the
// reproduction's simulator over HTTP/JSON. Clients submit batches of
// cells — stream-pair CPI measurements, kernel runs, or whole named
// harnesses like fig1 — and poll or stream progress while a bounded job
// queue executes them through the shared result cache, optionally
// backed by a disk store shared with the CLI tools.
//
// Usage:
//
//	smtd                                  # listen on 127.0.0.1:8377
//	smtd -addr 127.0.0.1:0 -addr-file a  # random port, written to a
//	smtd -store cells/                    # persist results across restarts
//	smtd -jobs 2 -queue 16 -workers 4     # concurrency and backpressure
//	smtd -artifacts obs/                  # enable observe cells
//	smtd -journal jobs/                   # crash-safe job journal
//	smtd -cell-timeout 30s                # per-cell watchdog
//	smtd -checkpoint-cycles 100000        # pausable kernel cells: preemption, drain/restart resume
//	smtd -queue-wait-target 2s            # AIMD admission: shed load when queue waits exceed this
//	smtd -tenants tenants.json            # per-tenant quotas + weighted fair-share scheduling
//	smtd -fault-plan plan.json            # arm a fault-injection plan (chaos testing)
//	smtd -coordinator -workers-list w0=127.0.0.1:9000,w1=127.0.0.1:9001
//	                                      # shard jobs across a worker fleet
//	smtd -coordinator -peer 127.0.0.1:8371 -store shared/
//	                                      # half of an HA coordinator pair
//	smtd -join 127.0.0.1:8370,127.0.0.1:8371 -name w0
//	                                      # worker: register with coordinator(s)
//
// In -coordinator mode the daemon runs no simulations itself: it
// consistent-hashes each submitted cell to a worker, forwards it over
// the same HTTP/JSON API, and mirrors progress — so clients cannot tell
// a coordinator from a single daemon. Workers join the fleet either via
// the -workers-list seed or by running with -join, which heartbeats a
// registration so fleets survive coordinator restarts.
//
// With -peer the coordinator runs as half of an HA pair: both halves
// share the -store directory, where a lease file elects exactly one
// leader and a fenced routing journal replicates ring membership, job
// routing, and tenant accounting to the standby. If the leader dies,
// the standby steals the lease within about one -lease-ttl, re-adopts
// live jobs from the journal, and keeps serving; the demoted side
// answers 503 with an X-Cluster-Leader header so clients can follow.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs[/{id}[/events|/result]],
// DELETE /v1/jobs/{id}, GET /healthz, GET /metrics (Prometheus text).
// Coordinators additionally serve GET /v1/cluster (topology) and
// POST /v1/cluster/register (worker admission).
// On SIGINT/SIGTERM the daemon stops intake (healthz turns 503),
// finishes every accepted job within -drain-timeout, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"smtexplore/internal/cluster"
	"smtexplore/internal/faultinject"
	"smtexplore/internal/runner"
	"smtexplore/internal/service"
	"smtexplore/internal/store"
	"smtexplore/internal/tenant"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("smtd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run configures and serves the daemon until ctx is cancelled (signal)
// or the listener fails. Tests drive it with their own context.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smtd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address (host:port; :0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts using -addr :0)")
	storeDir := fs.String("store", "", "disk-backed result store directory (empty: in-memory only)")
	storeMax := fs.Int64("store-max-bytes", 256<<20, "disk store size bound before LRU eviction (<=0: unbounded)")
	cacheEntries := fs.Int("cache-entries", 4096, "in-memory cache entry bound before LRU eviction (<=0: unbounded)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells per job (must be >= 1)")
	jobs := fs.Int("jobs", 2, "concurrent jobs (must be >= 1)")
	queue := fs.Int("queue", 16, "queued jobs beyond the active ones before 429 backpressure (must be >= 1)")
	artifacts := fs.String("artifacts", "", "observability artifact directory (empty: observe cells rejected)")
	drain := fs.Duration("drain-timeout", time.Minute, "graceful shutdown budget for accepted jobs")
	journalDir := fs.String("journal", "", "crash-safe job journal directory (empty: accepted jobs are lost on crash)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-cell watchdog budget (0: no watchdog)")
	checkpointCycles := fs.Uint64("checkpoint-cycles", 0, "kernel cell pause-point interval in simulated cycles (0: checkpointing off)")
	stopGrace := fs.Duration("stop-grace", 0, "watchdog wait for a stopping cell's final checkpoint (0: 2s default)")
	queueWaitTarget := fs.Duration("queue-wait-target", 0, "queue wait above which the AIMD limiter sheds load (0: no adaptive shedding)")
	tenantsFile := fs.String("tenants", "", "per-tenant quota/weight config JSON (empty: every tenant unlimited, weight 1)")
	ageAfter := fs.Duration("age-after", 0, "queue wait after which a job outranks fair-share and strict priority (0: 30s default; negative: aging off)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive store I/O failures before degrading to memory-only caching")
	breakerCooldown := fs.Duration("breaker-cooldown", 5*time.Second, "wait before probing a degraded store again")
	faultPlan := fs.String("fault-plan", "", "fault-injection plan JSON (chaos testing only; never set in production)")
	coordinator := fs.Bool("coordinator", false, "run as a cluster coordinator instead of a simulating daemon")
	workersList := fs.String("workers-list", "", "coordinator: comma-separated seed workers (name=addr or addr)")
	vnodes := fs.Int("vnodes", 0, "coordinator: virtual nodes per worker on the hash ring (0: default 128)")
	healthInterval := fs.Duration("health-interval", 0, "coordinator: worker health/telemetry probe interval (0: default 500ms)")
	probeTimeout := fs.Duration("probe-timeout", 0, "coordinator: per-probe deadline; slow-but-healthy workers are not strikes (0: max(2s, 2x health-interval))")
	stealMargin := fs.Int("steal-margin", 0, "coordinator: outstanding-jobs divergence before work stealing (0: default 2)")
	peer := fs.String("peer", "", "coordinator: run as half of an HA pair; the other coordinator's address (requires -coordinator and -store)")
	leaseTTL := fs.Duration("lease-ttl", 2*time.Second, "coordinator HA: leadership lease window; failover detection is bounded by this")
	join := fs.String("join", "", "worker: comma-separated coordinator addresses to heartbeat registrations to")
	name := fs.String("name", "", "worker: name to register under with -join; HA coordinator: lease holder identity (default: the bound address)")
	allowFaultAPI := fs.Bool("allow-fault-api", false, "open POST/DELETE /v1/faults for remote fault-plan arming (chaos testing only; never set in production)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	bad := func(format string, v ...any) error {
		fmt.Fprintf(os.Stderr, "smtd: "+format+"\n", v...)
		fs.Usage()
		return errUsage
	}
	if *coordinator && *join != "" {
		return bad("-coordinator and -join are mutually exclusive: a daemon is either the coordinator or a worker")
	}
	if !*coordinator && *workersList != "" {
		return bad("-workers-list requires -coordinator")
	}
	if !*coordinator && *peer != "" {
		return bad("-peer requires -coordinator: only coordinators form an HA pair")
	}
	if *peer != "" && *storeDir == "" {
		return bad("-peer requires -store: the HA lease and routing journal live under the shared store directory")
	}
	if *peer != "" && *workersList != "" {
		return bad("-workers-list cannot be combined with -peer: HA workers must -join both coordinators so they survive failover")
	}
	var tenants *tenant.Registry
	if *tenantsFile != "" {
		var err error
		if tenants, err = tenant.LoadFile(*tenantsFile); err != nil {
			return err
		}
		fmt.Fprintf(out, "smtd: tenants %s: %d configured\n", *tenantsFile, len(tenants.Names()))
	}
	if *coordinator {
		return runCoordinator(ctx, out, coordOpts{
			addr:     *addr,
			addrFile: *addrFile,
			seeds:    *workersList,
			peer:     *peer,
			name:     *name,
			storeDir: *storeDir,
			leaseTTL: *leaseTTL,
		}, cluster.Config{
			Vnodes:         *vnodes,
			HealthInterval: *healthInterval,
			ProbeTimeout:   *probeTimeout,
			StealMargin:    *stealMargin,
			Tenants:        tenants,
		})
	}
	if *workers < 1 {
		return bad("invalid -workers %d (must be >= 1)", *workers)
	}
	if *jobs < 1 {
		return bad("invalid -jobs %d (must be >= 1)", *jobs)
	}
	if *queue < 1 {
		return bad("invalid -queue %d (must be >= 1)", *queue)
	}

	if *faultPlan != "" {
		if _, err := faultinject.ArmFile(*faultPlan); err != nil {
			return err
		}
		fmt.Fprintf(out, "smtd: fault plan %s armed (chaos mode)\n", *faultPlan)
	}

	cache := runner.NewCache().WithLimit(*cacheEntries)
	cfg := service.Config{
		Workers:         *workers,
		MaxActive:       *jobs,
		QueueDepth:      *queue,
		Cache:           cache,
		ArtifactDir:     *artifacts,
		CellTimeout:     *cellTimeout,
		CheckpointEvery: *checkpointCycles,
		StopGrace:       *stopGrace,
		QueueWaitTarget: *queueWaitTarget,
		Tenants:         tenants,
		StoreLedger:     store.NewLedger(),
		AgeAfter:        *ageAfter,
		AllowFaultAPI:   *allowFaultAPI,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeMax)
		if err != nil {
			return err
		}
		// The breaker sits between the cache and the disk: a sick disk
		// degrades the daemon to memory-only caching instead of failing
		// cells, and /healthz reports (and probes) the degradation.
		br := store.NewBreaker(st, *breakerThreshold, *breakerCooldown)
		cache.WithTier(br)
		cfg.Store = st
		cfg.Breaker = br
		// Checkpoints ride the same degradation-tolerant disk path as
		// results, which is what lets a restarted daemon resume cells the
		// previous process parked mid-run.
		cfg.CheckpointSink = br
		ss := st.Stats()
		fmt.Fprintf(out, "smtd: store %s: %d entries, %d bytes\n", *storeDir, ss.Entries, ss.Bytes)
	}
	if *journalDir != "" {
		jl, err := service.OpenJournal(*journalDir)
		if err != nil {
			return err
		}
		cfg.Journal = jl
	}

	svc := service.New(cfg)
	if cfg.Journal != nil {
		if m := svc.Snapshot(); m.JobsRecovered+m.JobsAbandoned > 0 {
			fmt.Fprintf(out, "smtd: journal %s: recovered %d jobs, abandoned %d\n", *journalDir, m.JobsRecovered, m.JobsAbandoned)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		svc.Close()
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			svc.Close()
			return err
		}
	}
	fmt.Fprintf(out, "smtd: listening on %s\n", bound)
	if *join != "" {
		wname := *name
		if wname == "" {
			wname = bound
		}
		// One heartbeat per coordinator: in an HA pair the worker
		// advertises itself to both, so whichever holds the lease
		// (now or after a failover) can route to it immediately.
		for _, co := range strings.Split(*join, ",") {
			if co = strings.TrimSpace(co); co != "" {
				go heartbeat(ctx, co, wname, bound)
			}
		}
	}

	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop intake first so /healthz flips to 503 and new
	// submissions are refused, finish accepted jobs, then close the
	// listener (late pollers can still read results until the very end).
	fmt.Fprintf(out, "smtd: draining (budget %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(out, "smtd: drain incomplete: %v\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	srv.Shutdown(sctx)
	fmt.Fprintln(out, "smtd: bye")
	return nil
}
