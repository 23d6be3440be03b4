// Package smtexplore is a from-scratch reproduction of "Exploring the
// Performance Limits of Simultaneous Multithreading for Scientific Codes"
// (Athanasaki, Anastopoulos, Kourtis, Koziris — ICPP 2006).
//
// The paper measures, on a hyper-threaded Intel Xeon, how far thread-level
// parallelism (TLP) and speculative precomputation (SPR, helper-thread
// prefetching) can accelerate single scientific programs on a 2-way SMT
// processor — and finds that they mostly cannot. This module rebuilds the
// entire experimental apparatus in Go: a cycle-level simulator of the
// NetBurst-style SMT core (internal/smt) with its statically partitioned
// buffers, shared issue ports and cache hierarchy (internal/mem); the
// paper's synchronisation primitives — pause spin-loops, halt/IPI waits,
// sense-reversing barriers (internal/syncprim); the Section 4 synthetic
// instruction streams (internal/streams); the four benchmark kernels in
// every execution mode (internal/kernels/{mm,lu,cg,bt}); the
// performance-monitoring and Pin/Valgrind-style profiling substrates
// (internal/perfmon, internal/profile); the cell primitives the
// evaluation is built from (internal/experiments); and one committed
// study spec per figure and table of the evaluation (studies/).
//
// cmd/paper and the benchmarks in bench_test.go regenerate every figure
// and table:
//
//	go run ./cmd/paper
//	go test -bench=. -benchmem .
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory and paper→simulation substitution map, and
// EXPERIMENTS.md for measured-vs-paper comparisons.
package smtexplore
