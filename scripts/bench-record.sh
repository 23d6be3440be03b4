#!/bin/sh
# Record the gated benchmark set into a committed BENCH_*.json snapshot.
# Run on a quiet machine; the result is the baseline scripts/bench-gate.sh
# (and the CI bench-gate job, in same-runner A/B mode) compares against.
#
#   scripts/bench-record.sh [OUT.json]
#
# The set is the simulator-core performance surface: the cold Figure-1
# macro-benchmark (cells/s plus the reproduced shape metrics), the
# per-cycle stepping micro-benchmarks (1/2 contexts, armed/disarmed
# observers, fast-forward off/on) and whole loop-stream cells
# (arithmetic solo and pair, memory pair), all with allocation stats. Benchmarks
# whose results are machine-load-dependent by design (the runner's
# parallel speedup) are deliberately excluded. The set is run in three
# full passes (repeats of one benchmark minutes apart, so a load burst
# cannot hit them all) and the recorder keeps the min time/op per
# benchmark — the closest approximation of uncontended runtime.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_0006.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

for _pass in 1 2 3; do
	go test -run '^$' -bench 'BenchmarkFig1StreamCPI$' -benchtime 3x . | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkSimRate$|BenchmarkStepCompute|BenchmarkStepObserver|BenchmarkStepMemBound' \
		-benchtime 300000x ./internal/smt | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkStreamCell' -benchtime 10x ./internal/smt | tee -a "$tmp"
	go test -run '^$' -bench 'BenchmarkKernelCell' -benchtime 5x ./internal/smt | tee -a "$tmp"
done

go run ./cmd/benchgate record \
	-out "$out" \
	-commit "$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
	<"$tmp"
echo "recorded $(grep -c '"name"' "$out") benchmarks into $out"
