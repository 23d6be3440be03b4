// Package service exposes the reproduction's simulator as a long-running
// job service: clients submit batches of cells — the same independent,
// content-addressable units a compiled figure study fans out — and poll or
// stream progress while a bounded queue of workers executes them through
// the shared runner cache (optionally backed by a disk store, so results
// survive restarts and are shared with the CLI tools).
//
// The job/cell model maps directly onto the paper's experiment grid: a
// stream cell is one Figure 1/2 measurement (one or two co-executed
// streams over a cycle window), a kernel cell is one Figure 3/4/5 point
// (kernel × mode × size, optionally under a named variant — one row of
// an ablation or sensitivity table), and a profile cell is one column of
// Table 1 (kernel × mode).
package service

import (
	"fmt"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// Cell types.
const (
	TypeStream  = "stream"
	TypeKernel  = "kernel"
	TypeProfile = "profile"
)

// StreamSpec names one synthetic stream of a stream cell.
type StreamSpec struct {
	// Kind is the stream name ("fadd", "iload", "fadd-mul", …).
	Kind string `json:"kind"`
	// ILP is the paper's ILP degree: "min", "med" or "max" (also
	// accepted: "1", "3", "6" and the "minILP" long forms). Empty means
	// "max".
	ILP string `json:"ilp,omitempty"`
}

// CellSpec describes one unit of simulation work. Exactly the fields of
// the chosen type are consulted.
type CellSpec struct {
	// Type selects the cell kind: "stream", "kernel" or "profile".
	Type string `json:"type"`

	// Streams (stream cells) are the co-executed streams; the number of
	// streams is validated inside the cell (a bad count fails that cell,
	// not the batch).
	Streams []StreamSpec `json:"streams,omitempty"`
	// Window (stream cells) is the measurement window in cycles;
	// 0 means the harness default (experiments.StreamWindowCycles).
	Window uint64 `json:"window,omitempty"`

	// Kernel (kernel and profile cells) is "mm", "lu", "cg" or "bt".
	Kernel string `json:"kernel,omitempty"`
	// Mode (kernel and profile cells) is the execution mode ("serial",
	// "tlp-fine", …). Empty means "serial". Profile cells take serial,
	// tlp-coarse or tlp-pfetch.
	Mode string `json:"mode,omitempty"`
	// Size (kernel cells) is the problem size: the matrix dimension for
	// mm/lu (required), N for cg and G for bt (0 = instance default).
	Size int `json:"size,omitempty"`

	// Variant (kernel cells) names an override of the canonical cell
	// from experiments' committed table ("rob=64", "wait=halt",
	// "halt=selective", …); empty is the canonical cell.
	Variant string `json:"variant,omitempty"`

	// Observe requests per-cell observability artifacts (pipeline trace,
	// occupancy CSV, metrics JSON); stream and kernel cells only, and
	// only when the service has an artifact directory. Observed cells
	// bypass the result cache — a cache hit has nothing to trace.
	Observe bool `json:"observe,omitempty"`
}

// Cell states. A cell is "pending" until a worker picks it up and
// terminal once "done", "failed" or "cancelled". "preempted" is a
// checkpointable cell that yielded at a pause point (its job goes back
// to the queue and the cell to pending); "resumed" appears only as an
// event, marking a cell that picked up from its checkpoint instead of
// cycle zero.
const (
	CellPending   = "pending"
	CellRunning   = "running"
	CellDone      = "done"
	CellFailed    = "failed"
	CellCancelled = "cancelled"
	CellPreempted = "preempted"
	CellResumed   = "resumed"
)

// CellResult is the outcome of one cell. Exactly one of CPI, Kernel or
// Profile is populated on success, matching the cell type.
type CellResult struct {
	Index int    `json:"index"`
	Label string `json:"label"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`

	// CPI is the per-context CPI of a stream cell.
	CPI []float64 `json:"cpi,omitempty"`
	// Kernel is the monitored-event row of a kernel cell.
	Kernel *experiments.KernelMetrics `json:"kernel,omitempty"`
	// Profile is the Table 1 column of a profile cell.
	Profile *experiments.Table1Column `json:"profile,omitempty"`

	// Artifacts lists the observability files of an observed cell,
	// served under /v1/jobs/{id}/cells/{index}/artifacts/{name}.
	Artifacts []string `json:"artifacts,omitempty"`
}

// parseKind resolves a stream-kind name.
func parseKind(name string) (streams.Kind, error) {
	for _, k := range streams.All() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown stream kind %q", name)
}

// parseILP resolves an ILP-degree name; empty means max, as in the
// paper's headline configuration.
func parseILP(name string) (streams.ILP, error) {
	switch strings.TrimSuffix(name, "ILP") {
	case "", "max", "6":
		return streams.MaxILP, nil
	case "med", "3":
		return streams.MedILP, nil
	case "min", "1":
		return streams.MinILP, nil
	}
	return 0, fmt.Errorf("unknown ILP degree %q (want min, med or max)", name)
}

// parseMode resolves an execution-mode name; empty means serial.
func parseMode(name string) (kernels.Mode, error) {
	if name == "" {
		return kernels.Serial, nil
	}
	for _, m := range kernels.AllModes() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

// streamSpecs resolves the cell's stream list into harness specs.
func (c CellSpec) streamSpecs() ([]streams.Spec, error) {
	out := make([]streams.Spec, len(c.Streams))
	for i, s := range c.Streams {
		kind, err := parseKind(s.Kind)
		if err != nil {
			return nil, err
		}
		ilp, err := parseILP(s.ILP)
		if err != nil {
			return nil, err
		}
		out[i] = streams.Spec{Kind: kind, ILP: ilp}
	}
	return out, nil
}

// window returns the effective measurement window of a stream cell.
func (c CellSpec) window() uint64 {
	if c.Window == 0 {
		return experiments.StreamWindowCycles
	}
	return c.Window
}

// Validate checks everything knowable without running: the type, the
// name-shaped fields (stream kinds, ILP degrees, kernel, mode and
// variant names) and the observe constraints. Semantic constraints that
// the cell itself enforces — stream counts, matrix sizes, which kernels
// a variant or Table 1 profiles — are left to cell execution so one bad
// cell fails that cell, not the batch.
func (c CellSpec) Validate(allowObserve bool) error {
	switch c.Type {
	case TypeStream:
		if len(c.Streams) == 0 {
			return fmt.Errorf("stream cell needs at least one stream")
		}
		if _, err := c.streamSpecs(); err != nil {
			return err
		}
	case TypeKernel, TypeProfile:
		switch c.Kernel {
		case "mm", "lu", "cg", "bt":
		default:
			return fmt.Errorf("unknown kernel %q (want mm, lu, cg or bt)", c.Kernel)
		}
		if _, err := parseMode(c.Mode); err != nil {
			return err
		}
		if _, ok := experiments.LookupVariant(c.Variant); c.Type == TypeKernel && c.Variant != "" && !ok {
			return fmt.Errorf("unknown variant %q", c.Variant)
		}
		if c.Type == TypeProfile && c.Observe {
			return fmt.Errorf("observe is only supported for stream and kernel cells")
		}
	default:
		return fmt.Errorf("unknown cell type %q (want stream, kernel or profile)", c.Type)
	}
	if c.Observe && !allowObserve {
		return fmt.Errorf("observe requested but the service has no artifact directory")
	}
	return nil
}

// Label names the cell for status displays and event streams.
func (c CellSpec) Label() string {
	switch c.Type {
	case TypeStream:
		parts := make([]string, len(c.Streams))
		for i, s := range c.Streams {
			ilp, err := parseILP(s.ILP)
			if err != nil {
				parts[i] = s.Kind + "-?"
				continue
			}
			parts[i] = fmt.Sprintf("%s-%v", s.Kind, ilp)
		}
		return fmt.Sprintf("stream:%s@%d", strings.Join(parts, "+"), c.window())
	case TypeKernel, TypeProfile:
		mode := c.Mode
		if mode == "" {
			mode = kernels.Serial.String()
		}
		label := fmt.Sprintf("%s:%s/%s", c.Type, c.Kernel, mode)
		if c.Size > 0 {
			label += fmt.Sprintf("/N=%d", c.Size)
		}
		if c.Variant != "" {
			label += "/" + c.Variant
		}
		return label
	}
	return "cell:?"
}
