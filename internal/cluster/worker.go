package cluster

import (
	"context"
	"time"

	"smtexplore/internal/api"
	"smtexplore/internal/service"
)

// Worker is the coordinator's remote-executor seam: the narrow slice of
// one smtd's API the cluster needs. The production implementation is
// Remote (HTTP against a worker daemon); tests swap in in-process
// fakes, which is what keeps steal/migration logic unit-testable
// without sockets.
type Worker interface {
	// Name identifies the worker on the hash ring.
	Name() string
	// Addr is the worker's host:port (diagnostics and topology views).
	Addr() string
	// Submit enqueues a batch remotely and returns the remote job ID.
	// idemKey guards against double-enqueue when a 202 response is lost.
	Submit(ctx context.Context, req service.SubmitRequest, idemKey string) (string, error)
	// Status fetches a remote job's progress view.
	Status(ctx context.Context, id string) (service.JobStatus, error)
	// Follow streams a remote job's progress: it calls onEvent for each
	// event after seq since (-1: the whole history, replayed first) and
	// returns the terminal state once the job ends. An error means the
	// stream broke first (resume from the last seq seen) or, wrapping
	// api.ErrJobNotFound, that the worker does not know the job. ctx bounds
	// the stream.
	Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (string, error)
	// Result fetches a terminal remote job's full results.
	Result(ctx context.Context, id string) (service.JobResult, error)
	// Cancel aborts a remote job (idempotent server-side).
	Cancel(ctx context.Context, id string) error
	// Health probes liveness (nil on a serving worker).
	Health(ctx context.Context) error
	// Stats fetches the worker's structured metrics snapshot — the
	// queue-wait and checkpoint telemetry behind stealing and the
	// cluster-wide metric aggregates.
	Stats(ctx context.Context) (service.Metrics, error)
}

// Remote is the HTTP Worker: the existing single-daemon job API is the
// cluster's wire protocol, so a worker smtd needs no cluster-specific
// endpoints at all. It is a name on the ring plus the shared job-API
// client, which makes no retries (the coordinator's placement decides
// what a failed call means) and bounds each request at 10 s — anything
// slower is the health loop's problem, not a reason to hold a submit
// hostage. Refusals come back as *api.RefusedError and unknown jobs
// wrap api.ErrJobNotFound.
type Remote struct {
	name string
	*api.Client
}

// NewRemote builds the HTTP client for the worker at addr (host:port).
// name defaults to addr; give explicit names when addresses are
// ephemeral (port-0 tests) but identity must survive restarts.
func NewRemote(name, addr string) *Remote {
	if name == "" {
		name = addr
	}
	return &Remote{name: name, Client: api.NewClient(api.NewEndpoints(addr, addr), 0, 10*time.Second, false)}
}

func (r *Remote) Name() string { return r.name }

// Follow streams the job through the client; the coordinator needs
// only the terminal state from the end event.
func (r *Remote) Follow(ctx context.Context, id string, since int, onEvent func(service.Event)) (string, error) {
	end, err := r.Client.Follow(ctx, id, since, onEvent)
	return end.State, err
}

// Cancel aborts the job; the coordinator does not read the status.
func (r *Remote) Cancel(ctx context.Context, id string) error {
	_, err := r.Client.Cancel(ctx, id)
	return err
}
