package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/cluster"
)

// coordOpts carries the coordinator-mode command-line choices into
// runCoordinator without a telescoping parameter list.
type coordOpts struct {
	addr     string // -addr
	addrFile string // -addr-file
	seeds    string // -workers-list
	peer     string // -peer: the other half of an HA pair ("" = single coordinator)
	name     string // -name: lease holder identity (default: the bound address)
	storeDir string // -store: the shared directory hosting ha/ lease + journal
	leaseTTL time.Duration
}

// runCoordinator serves the cluster coordinator: the single-daemon job
// API over a fleet of workers, plus /v1/cluster for topology and
// registration. Seeds is the -workers-list value — comma-separated
// name=addr (or bare addr) entries admitted before listening; workers
// started with -join register themselves afterwards. With -peer set
// the coordinator instead runs as half of an HA pair.
func runCoordinator(ctx context.Context, out io.Writer, o coordOpts, cfg cluster.Config) error {
	if o.peer != "" {
		return runHACoordinator(ctx, out, o, cfg)
	}
	c := cluster.New(cfg)
	defer c.Close()
	for _, seed := range strings.Split(o.seeds, ",") {
		seed = strings.TrimSpace(seed)
		if seed == "" {
			continue
		}
		name, waddr := seed, seed
		if i := strings.IndexByte(seed, '='); i >= 0 {
			name, waddr = seed[:i], seed[i+1:]
		}
		c.AddWorker(cluster.NewRemote(name, waddr))
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(out, "smtd: coordinating on %s (%d seed workers)\n", bound, len(c.Topology().Workers))

	srv := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	fmt.Fprintln(out, "smtd: bye")
	return nil
}

// runHACoordinator serves one half of an HA coordinator pair. The
// listener is bound before the HA node starts so the advertised
// X-Cluster-Leader address is the real bound address (matters with
// -addr :0). Leadership, journal replication, and failover live in
// cluster.HANode; this function only wires the daemon plumbing.
func runHACoordinator(ctx context.Context, out io.Writer, o coordOpts, cfg cluster.Config) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	name := o.name
	if name == "" {
		name = bound
	}
	n, err := cluster.NewHA(cluster.HAConfig{
		Name: name,
		Addr: bound,
		// The store dir is shared between the pair; the HA state rides a
		// subdirectory the content-addressed store ignores.
		Dir:         filepath.Join(o.storeDir, "ha"),
		TTL:         o.leaseTTL,
		Peers:       []string{o.peer},
		Coordinator: cfg,
		Log:         out,
	})
	if err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(out, "smtd: coordinating on %s (ha pair %s, peer %s, lease ttl %v)\n",
		bound, name, o.peer, o.leaseTTL)

	srv := &http.Server{Handler: n.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		n.Close()
		return err
	case <-ctx.Done():
	}
	// Close before shutting the listener down: if this node leads, Close
	// releases the lease so the peer can promote immediately instead of
	// waiting out the TTL.
	n.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(sctx)
	fmt.Fprintln(out, "smtd: bye")
	return nil
}

// heartbeat re-registers this worker with the coordinator until ctx is
// cancelled. Registration is idempotent on the coordinator side, so a
// steady beat doubles as liveness advertising and as automatic re-join
// after a coordinator restart (whose fresh ring starts empty).
func heartbeat(ctx context.Context, coordinator, name, addr string) {
	body, err := json.Marshal(map[string]string{"name": name, "addr": addr})
	if err != nil {
		panic(err) // a map[string]string always marshals
	}
	// No retries: the next beat is the retry.
	client := api.NewClient(api.NewEndpoints(coordinator, ""), 0, 2*time.Second, false)
	t := time.NewTicker(300 * time.Millisecond)
	defer t.Stop()
	registered := false
	for {
		ok := client.PostJSON(ctx, "/v1/cluster/register", body) == nil
		if ctx.Err() != nil {
			return
		}
		// Log only the transitions, not the steady state.
		if ok && !registered {
			log.Printf("registered with coordinator %s as %s", coordinator, name)
		}
		if !ok && registered {
			log.Printf("coordinator %s unreachable; will keep retrying", coordinator)
		}
		registered = ok
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}
