package smt

import (
	"slices"

	"smtexplore/internal/isa"
)

// Flattened per-opcode execution tables. isa.SpecOf returns the full Spec
// struct by value (ports slice, port→unit table, latencies) — fine for
// construction-time code, but the issue stage consults latency,
// recurrence and port candidates on every dispatch and every dependence
// examination, so the hot loops read these precomputed arrays instead.
var (
	opLatency    [isa.NumOps]uint64
	opRecurrence [isa.NumOps]uint64

	// opClass groups the opcodes into port classes: opcodes with the
	// same port-candidate list contend for exactly the same ports and
	// units, so once pickPort fails for one of them in a cycle it fails
	// for the whole class. classPorts is each class's candidate list.
	opClass    [isa.NumOps]uint8
	classPorts [][]portCand
)

// portCand is one (port, unit, cost) issue choice for an opcode, in
// spec order. cost is in half-slots: 1 for double-speed ALU µops, 2 (the
// whole port) otherwise.
type portCand struct {
	port isa.Port
	unit isa.Unit
	cost int
}

func init() {
	for op := 0; op < isa.NumOps; op++ {
		spec := isa.SpecOf(isa.Op(op))
		opLatency[op] = uint64(spec.Latency)
		opRecurrence[op] = uint64(spec.Recurrence)
		var ports []portCand
		for _, p := range spec.Ports {
			unit := spec.UnitFor[p]
			cost := 1
			if isa.PortWidth(p, unit) < 2 {
				cost = 2
			}
			ports = append(ports, portCand{port: p, unit: unit, cost: cost})
		}
		c := slices.IndexFunc(classPorts, func(cp []portCand) bool { return slices.Equal(cp, ports) })
		if c < 0 {
			c = len(classPorts)
			classPorts = append(classPorts, ports)
		}
		opClass[op] = uint8(c)
	}
	if len(classPorts) > 32 {
		panic("smt: more port classes than the issue stage's blocked mask holds")
	}
}
