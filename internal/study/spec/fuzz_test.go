package spec

import (
	"encoding/json"
	"testing"
)

// FuzzParseSpec hunts for inputs that crash the parser or break its
// invariants: a successful parse must yield a spec that re-validates,
// and whose canonical JSON form re-parses to the same hash (the
// idempotence the study engine's idempotency keys rest on).
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(validJSON))
	f.Add([]byte(`{"name":"t1","sweeps":[{"name":"t","kind":"profile","kernels":["mm","bt"],"modes":["serial","tlp-pfetch"]}]}`))
	f.Add([]byte(`{"name":"k","budget":{"cycles":10000000,"cells":5},"deadline":"5m","priority":3,` +
		`"sweeps":[{"name":"mm","kind":"kernel","kernels":["mm"],"sizes":[32,64],"modes":["serial","tlp-fine"]}]}`))
	f.Add([]byte(`{"name":"f2","sweeps":[{"name":"m","kind":"stream","table":"fig2",` +
		`"streams":["fadd","fmul"],"partners":["iadd"],"ilp":["min"]}]}`))
	f.Add([]byte("# Title\n\nprose\n\n```json\n{\"name\":\"md\",\"sweeps\":[{\"name\":\"s\",\"kind\":\"stream\",\"streams\":[\"iload\"]}]}\n```\n"))
	f.Add([]byte("```json\nnot json\n```\n"))
	f.Add([]byte(`{"name":"x"`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %v\ninput: %q", err, data)
		}
		h := s.Hash()
		if h == "" {
			t.Fatalf("empty hash for %q", data)
		}
		canon, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of parsed spec: %v", err)
		}
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\ncanon: %s", err, canon)
		}
		if s2.Hash() != h {
			t.Fatalf("canonical round-trip changed the hash\ninput: %q", data)
		}
		for _, sw := range s.Sweeps {
			switch sw.EffectiveTable() {
			case TableFig1, TableFig2, TableKernel, TableAblation, TableSelective, TableSensitivity, TableTable1:
			default:
				t.Fatalf("valid spec with unknown effective table %q", sw.EffectiveTable())
			}
		}
	})
}
