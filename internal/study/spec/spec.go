// Package spec parses and validates declarative study specifications.
//
// A study spec names a set of sweeps — stream grids, kernel grids (of
// canonical cells or their named variants) or Table 1 profiling grids —
// plus scheduling hints (priority, deadline)
// and an admission budget. It is deliberately a plain data shape: the
// compile package lowers it into content-keyed cells, so everything
// here is checkable without running a single simulation.
//
// Specs are written either as bare JSON or as a Markdown document whose
// first ```json fenced code block holds the JSON (prose around the
// block is the study's human-readable motivation; a leading "# " line
// becomes the title when the JSON sets none).
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// Sweep kinds.
const (
	KindStream  = "stream"
	KindKernel  = "kernel"
	KindProfile = "profile"
)

// Table styles. Each sweep synthesizes one result table; the style
// picks the formatter (and therefore the cell grid the sweep needs).
const (
	// TableFig1 renders solo-vs-duo CPI per stream×ILP, byte-identical
	// to `paper fig1` when the sweep mirrors the paper's grid.
	TableFig1 = "fig1"
	// TableFig2 renders the pairwise co-execution slowdown matrix,
	// byte-identical to `paper fig2a/fig2b/fig2c` for the paper's sets.
	TableFig2 = "fig2"
	// TableKernel renders the four-panel kernel figure, byte-identical
	// to `paper fig3/fig4/fig5` for the paper's sweeps.
	TableKernel = "kernel"
	// TableAblation renders one row per variant (× mode), as `paper
	// sync|span|partition` prints it.
	TableAblation = "ablation"
	// TableSelective renders the selective-halting study from its two
	// cells, the canonical one and its halt=selective variant, as
	// `paper selective` prints it.
	TableSelective = "selective"
	// TableSensitivity renders one row per variant with its delta to the
	// first, as `paper sensitivity` prints it.
	TableSensitivity = "sensitivity"
	// TableTable1 renders the instruction-mix columns of a profile
	// sweep, as `paper table1` prints it.
	TableTable1 = "table1"
)

// Budget bounds what a study may simulate. Zero values mean unlimited.
// Warm cells (already in the store) are free; the budget admits cold
// work only.
type Budget struct {
	// Cycles caps the estimated simulated cycles of admitted cold cells.
	Cycles uint64 `json:"cycles,omitempty"`
	// Cells caps the number of admitted cold cells.
	Cells int `json:"cells,omitempty"`
}

// Sweep is one experiment grid of a study. Exactly the fields of its
// Kind are consulted.
type Sweep struct {
	// Name identifies the sweep (and its table file) within the study.
	Name string `json:"name"`
	// Kind is "stream", "kernel" or "profile".
	Kind string `json:"kind"`
	// Table picks the synthesis style; empty means the kind's default
	// (stream→fig1, kernel→kernel, profile→table1).
	Table string `json:"table,omitempty"`
	// Title overrides the table heading for fig2, kernel, ablation and
	// sensitivity tables.
	Title string `json:"title,omitempty"`

	// Streams (stream sweeps) are the swept stream kinds; for fig2
	// tables they are the matrix subjects.
	Streams []string `json:"streams,omitempty"`
	// Partners (fig2 tables) are the matrix partners; empty means the
	// subject set.
	Partners []string `json:"partners,omitempty"`
	// ILP lists the swept ILP degrees ("min", "med", "max"); empty
	// means all three, in the paper's order.
	ILP []string `json:"ilp,omitempty"`
	// Threads (fig1 tables) lists the co-executed copy counts; empty
	// means [1, 2].
	Threads []int `json:"threads,omitempty"`
	// Window is the measurement window in cycles (0 = harness default).
	Window uint64 `json:"window,omitempty"`

	// Kernels names the kernel of a kernel sweep (exactly one: the
	// vs-serial column is per-kernel) or the profiled kernels of a
	// profile sweep.
	Kernels []string `json:"kernels,omitempty"`
	// Modes lists the swept execution modes; empty means every mode the
	// kernel implements (kernel sweeps only).
	Modes []string `json:"modes,omitempty"`
	// Sizes lists the swept problem sizes (mm/lu require > 0; 0 keeps
	// the cg/bt instance default).
	Sizes []int `json:"sizes,omitempty"`

	// Variants (kernel sweeps) names overrides of the canonical cell
	// from experiments' committed table ("rob=64", "wait=halt", …; ""
	// is the canonical cell), swept between sizes and modes. Kernel
	// tables take none; the selective table takes "" and
	// "halt=selective".
	Variants []string `json:"variants,omitempty"`

	// CellCost overrides the budget's per-cold-cell cycle estimate for
	// this sweep (stream cells default to their window; kernel and
	// profile cells to a coarse built-in estimate).
	CellCost uint64 `json:"cellCost,omitempty"`
}

// Spec is a whole declarative study.
type Spec struct {
	// Name is the study's identity: its state directory and idempotency
	// scope. Lowercase slug.
	Name string `json:"name"`
	// Title heads the synthesized report; empty falls back to Name (or
	// the Markdown document's first heading).
	Title string `json:"title,omitempty"`
	// Description is carried into the report's metadata section.
	Description string `json:"description,omitempty"`
	// Priority and Deadline are passed to the job API when the study
	// runs against a daemon (deadline is a Go duration from admission).
	Priority int    `json:"priority,omitempty"`
	Deadline string `json:"deadline,omitempty"`
	// Budget bounds admitted cold work.
	Budget Budget `json:"budget,omitempty"`
	// Sweeps are the experiment grids, synthesized in order.
	Sweeps []Sweep `json:"sweeps"`
	// Claims adds the paper-claim verdict table (deltas vs. the
	// published numbers) to the report, evaluated over whatever the
	// study's sweeps reconstructed.
	Claims bool `json:"claims,omitempty"`
}

// Parse reads a spec from JSON or Markdown bytes: input whose first
// non-space byte is '{' is parsed as JSON; anything else is treated as
// Markdown and the first ```json fenced block is parsed instead.
// The returned spec is validated.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty input")
	}
	var title string
	if trimmed[0] != '{' {
		var err error
		trimmed, title, err = extractFenced(trimmed)
		if err != nil {
			return nil, err
		}
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the JSON object")
	}
	if s.Title == "" {
		s.Title = title
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// extractFenced pulls the first ```json fenced block out of a Markdown
// document, plus the document's first "# " heading as a title fallback.
func extractFenced(md []byte) (block []byte, title string, err error) {
	lines := strings.Split(string(md), "\n")
	var body []string
	in := false
	for _, line := range lines {
		t := strings.TrimSpace(line)
		if !in {
			if title == "" && strings.HasPrefix(t, "# ") {
				// JSON strings are always valid UTF-8 (the decoder coerces
				// them); hold the Markdown path to the same, or the spec's
				// canonical form would not round-trip byte-stable.
				title = strings.ToValidUTF8(strings.TrimSpace(strings.TrimPrefix(t, "# ")), "�")
			}
			if t == "```json" || t == "```study" {
				in = true
			}
			continue
		}
		if t == "```" {
			return []byte(strings.Join(body, "\n")), title, nil
		}
		body = append(body, line)
	}
	if in {
		return nil, "", fmt.Errorf("spec: unterminated fenced block")
	}
	return nil, "", fmt.Errorf("spec: markdown input has no ```json fenced block")
}

// Hash is the spec's content identity: the hex sha256 of its canonical
// JSON form. Two textually different documents (Markdown vs bare JSON,
// reordered keys) that mean the same study hash the same.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// slugOK reports whether a name is safe as a directory/file component.
func slugOK(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// ParseKind resolves a stream-kind name as the service does.
func ParseKind(name string) (streams.Kind, error) {
	for _, k := range streams.All() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown stream kind %q", name)
}

// ParseILP resolves an ILP-degree name ("min"/"med"/"max", the digit
// forms and the "minILP" long forms; empty means max, as in the paper's
// headline configuration).
func ParseILP(name string) (streams.ILP, error) {
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

// ParseMode resolves an execution-mode name; empty means serial.
func ParseMode(name string) (kernels.Mode, error) {
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

// ILPName is the canonical short spelling compile and synth agree on.
func ILPName(ilp streams.ILP) string {
	switch ilp {
	case streams.MinILP:
		return "min"
	case streams.MedILP:
		return "med"
	}
	return "max"
}

// EffectiveTable is the sweep's table style with the kind default
// applied.
func (sw Sweep) EffectiveTable() string {
	if sw.Table != "" {
		return sw.Table
	}
	switch sw.Kind {
	case KindStream:
		return TableFig1
	case KindKernel:
		return TableKernel
	}
	return TableTable1
}

// EffectiveILP is the sweep's ILP list with the default (all three, in
// the paper's min→med→max order) applied.
func (sw Sweep) EffectiveILP() []string {
	if len(sw.ILP) > 0 {
		return sw.ILP
	}
	return []string{"min", "med", "max"}
}

// EffectiveThreads is the fig1 thread list with the default applied.
func (sw Sweep) EffectiveThreads() []int {
	if len(sw.Threads) > 0 {
		return sw.Threads
	}
	return []int{1, 2}
}

// EffectivePartners is the fig2 partner set with the default (the
// subject set) applied.
func (sw Sweep) EffectivePartners() []string {
	if len(sw.Partners) > 0 {
		return sw.Partners
	}
	return sw.Streams
}

// Validate checks everything knowable without running: slugs, kind and
// table names, stream/ILP/kernel/mode spellings, thread counts and the
// deadline duration. Variant names are validated by the compile step
// (which owns the experiments dependency).
func (s *Spec) Validate() error {
	if !slugOK(s.Name) {
		return fmt.Errorf("spec: name %q must be a non-empty lowercase slug (a-z, 0-9, -, _)", s.Name)
	}
	if s.Deadline != "" {
		if _, err := time.ParseDuration(s.Deadline); err != nil {
			return fmt.Errorf("spec: deadline: %w", err)
		}
	}
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("spec: at least one sweep is required")
	}
	seen := map[string]bool{}
	for i, sw := range s.Sweeps {
		if !slugOK(sw.Name) {
			return fmt.Errorf("spec: sweep %d: name %q must be a non-empty lowercase slug", i, sw.Name)
		}
		if seen[sw.Name] {
			return fmt.Errorf("spec: duplicate sweep name %q", sw.Name)
		}
		seen[sw.Name] = true
		if err := sw.validate(); err != nil {
			return fmt.Errorf("spec: sweep %q: %w", sw.Name, err)
		}
	}
	return nil
}

func (sw Sweep) validate() error {
	table := sw.EffectiveTable()
	switch sw.Kind {
	case KindStream:
		if table != TableFig1 && table != TableFig2 {
			return fmt.Errorf("stream sweeps take table %q or %q, not %q", TableFig1, TableFig2, table)
		}
		if len(sw.Streams) == 0 {
			return fmt.Errorf("at least one stream is required")
		}
		for _, name := range sw.Streams {
			if _, err := ParseKind(name); err != nil {
				return err
			}
		}
		for _, name := range sw.Partners {
			if _, err := ParseKind(name); err != nil {
				return err
			}
		}
		for _, name := range sw.ILP {
			if _, err := ParseILP(name); err != nil {
				return err
			}
		}
		if table == TableFig1 && len(sw.Partners) > 0 {
			return fmt.Errorf("partners are a fig2-table field")
		}
		for _, n := range sw.EffectiveThreads() {
			if n < 1 || n > 2 {
				return fmt.Errorf("threads must be 1 or 2 (the machine has two contexts), got %d", n)
			}
		}
	case KindKernel:
		switch table {
		case TableKernel:
			if len(sw.Variants) > 0 {
				return fmt.Errorf("kernel tables take no variants (the vs-serial column would mix them)")
			}
		case TableSelective:
			if len(sw.Sizes) != 1 || len(sw.Modes) != 1 || len(sw.Variants) != 2 || sw.Variants[0] != "" || sw.Variants[1] != "halt=selective" {
				return fmt.Errorf("selective tables take one size, one mode and variants [\"\", \"halt=selective\"]")
			}
		case TableSensitivity:
			if len(sw.Sizes) > 1 || len(sw.Modes) != 1 {
				return fmt.Errorf("sensitivity tables take at most one size and exactly one mode (every row's delta is against one baseline)")
			}
		case TableAblation:
		default:
			return fmt.Errorf("kernel sweeps take table %q, %q, %q or %q, not %q",
				TableKernel, TableAblation, TableSelective, TableSensitivity, table)
		}
		if len(sw.Kernels) != 1 {
			return fmt.Errorf("kernel sweeps take exactly one kernel (the vs-serial baseline is per-kernel); split into one sweep per kernel")
		}
		if err := sw.validateKernelsAndModes(); err != nil {
			return err
		}
		k := sw.Kernels[0]
		sizes := sw.Sizes
		if len(sizes) == 0 && (k == "mm" || k == "lu") {
			return fmt.Errorf("%s sweeps need explicit sizes > 0", k)
		}
		for _, n := range sizes {
			if n < 0 {
				return fmt.Errorf("negative size %d", n)
			}
			if n == 0 && (k == "mm" || k == "lu") {
				return fmt.Errorf("%s needs sizes > 0", k)
			}
		}
	case KindProfile:
		if table != TableTable1 {
			return fmt.Errorf("profile sweeps take table %q, not %q", TableTable1, table)
		}
		if len(sw.Kernels) == 0 || len(sw.Modes) == 0 {
			return fmt.Errorf("profile sweeps need kernels and modes")
		}
		return sw.validateKernelsAndModes()
	default:
		return fmt.Errorf("unknown kind %q (want stream, kernel or profile)", sw.Kind)
	}
	return nil
}

// validateKernelsAndModes checks the kernel and mode spellings of a
// kernel or profile sweep.
func (sw Sweep) validateKernelsAndModes() error {
	for _, k := range sw.Kernels {
		switch k {
		case "mm", "lu", "cg", "bt":
		default:
			return fmt.Errorf("unknown kernel %q (want mm, lu, cg or bt)", k)
		}
	}
	for _, name := range sw.Modes {
		if _, err := ParseMode(name); err != nil {
			return err
		}
	}
	return nil
}
