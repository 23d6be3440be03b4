package spec

import (
	"strings"
	"testing"
)

const validJSON = `{
  "name": "fig1",
  "sweeps": [
    {"name": "fig1", "kind": "stream",
     "streams": ["fadd", "iload"], "ilp": ["min", "max"]}
  ]
}`

func TestParseJSON(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "fig1" || len(s.Sweeps) != 1 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	sw := s.Sweeps[0]
	if sw.EffectiveTable() != TableFig1 {
		t.Errorf("default table = %q, want fig1", sw.EffectiveTable())
	}
	if got := sw.EffectiveThreads(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("default threads = %v", got)
	}
}

func TestParseMarkdown(t *testing.T) {
	md := "# The Figure 1 study\n\nProse around the block.\n\n```json\n" +
		validJSON + "\n```\n\nTrailing prose.\n"
	s, err := Parse([]byte(md))
	if err != nil {
		t.Fatalf("Parse markdown: %v", err)
	}
	if s.Title != "The Figure 1 study" {
		t.Errorf("title from heading = %q", s.Title)
	}
	// The same study means the same hash regardless of document form.
	j, err := Parse([]byte(strings.Replace(validJSON, `"name": "fig1"`,
		`"name": "fig1", "title": "The Figure 1 study"`, 1)))
	if err != nil {
		t.Fatalf("Parse json: %v", err)
	}
	if s.Hash() != j.Hash() {
		t.Errorf("markdown and JSON forms of the same study hash differently")
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"no fence":         "# title\n\nno json here\n",
		"unterminated":     "```json\n{\"name\":\"x\"}\n",
		"bad name":         `{"name": "Has Spaces", "sweeps": [{"name":"s","kind":"stream","streams":["fadd"]}]}`,
		"no sweeps":        `{"name": "x", "sweeps": []}`,
		"dup sweep":        `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"]},{"name":"a","kind":"stream","streams":["fadd"]}]}`,
		"bad kind":         `{"name":"x","sweeps":[{"name":"a","kind":"quantum"}]}`,
		"bad stream":       `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["warp"]}]}`,
		"bad ilp":          `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"ilp":["ultra"]}]}`,
		"bad threads":      `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"threads":[3]}]}`,
		"fig1 partners":    `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"partners":["fmul"]}]}`,
		"two kernels":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm","lu"],"sizes":[32]}]}`,
		"mm no sizes":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm"]}]}`,
		"bad mode":         `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["cg"],"modes":["warp-speed"]}]}`,
		"bad kernel":       `{"name":"x","sweeps":[{"name":"a","kind":"kernel","table":"sensitivity","kernels":["bogus"],"variants":["rob=64"]}]}`,
		"bad sens. mode":   `{"name":"x","sweeps":[{"name":"a","kind":"kernel","table":"sensitivity","kernels":["mm"],"sizes":[64],"modes":["bogus"],"variants":["rob=64"]}]}`,
		"sens. two sizes":  `{"name":"x","sweeps":[{"name":"a","kind":"kernel","table":"sensitivity","kernels":["mm"],"sizes":[16,32],"modes":["serial"],"variants":["rob=64"]}]}`,
		"sens. all modes":  `{"name":"x","sweeps":[{"name":"a","kind":"kernel","table":"sensitivity","kernels":["mm"],"sizes":[16],"variants":["rob=64"]}]}`,
		"harness kind":     `{"name":"x","sweeps":[{"name":"a","kind":"harness"}]}`,
		"kernel variants":  `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm"],"sizes":[32],"variants":["rob=64"]}]}`,
		"selective shape":  `{"name":"x","sweeps":[{"name":"a","kind":"kernel","table":"selective","kernels":["lu"],"sizes":[32],"modes":["tlp-coarse"],"variants":["halt=selective"]}]}`,
		"profile no modes": `{"name":"x","sweeps":[{"name":"a","kind":"profile","kernels":["mm"]}]}`,
		"profile table":    `{"name":"x","sweeps":[{"name":"a","kind":"profile","table":"kernel","kernels":["mm"],"modes":["serial"]}]}`,
		"bad deadline":     `{"name":"x","deadline":"soon","sweeps":[{"name":"a","kind":"stream","streams":["fadd"]}]}`,
		"unknown field":    `{"name":"x","cycles":5,"sweeps":[{"name":"a","kind":"stream","streams":["fadd"]}]}`,
		"trailing garbage": validJSON + `{"again": true}`,
	}
	for label, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted %q", label, in)
		}
	}
}

func TestILPRoundTrip(t *testing.T) {
	for _, name := range []string{"min", "med", "max", "1", "3", "6", "minILP", ""} {
		ilp, err := ParseILP(name)
		if err != nil {
			t.Fatalf("ParseILP(%q): %v", name, err)
		}
		back, err := ParseILP(ILPName(ilp))
		if err != nil || back != ilp {
			t.Errorf("ILPName(%v)=%q does not round-trip (%v, %v)", ilp, ILPName(ilp), back, err)
		}
	}
}

func TestHashStable(t *testing.T) {
	a, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("hash is not deterministic")
	}
	b.Budget.Cycles = 1
	if a.Hash() == b.Hash() {
		t.Errorf("hash ignores the budget")
	}
}
