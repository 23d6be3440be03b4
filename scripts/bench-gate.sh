#!/bin/sh
# Benchmark-regression gate: re-run the gated benchmark set and fail if
# time/op regresses more than the threshold or allocs/op rises at all.
# The authoritative comparator is the in-repo cmd/benchgate (stdlib
# only); benchstat, when installed, adds a statistical diff as a
# best-effort artifact but never decides the verdict.
#
#   scripts/bench-gate.sh                  gate against committed BENCH_0006.json
#   scripts/bench-gate.sh --against REF    same-machine A/B: record REF's
#                                          baseline in a worktree first
#                                          (what CI does, so runner speed
#                                          differences cannot gate)
#   scripts/bench-gate.sh --selftest       prove the gate goes red on an
#                                          injected +10% slowdown
#
# Environment: BENCH_BASELINE (default BENCH_0006.json),
# BENCH_THRESHOLD (default 0.10), BENCH_DIFF_OUT (artifact path for the
# verdict table, default bench-diff.txt).
set -eu

cd "$(dirname "$0")/.."
baseline="${BENCH_BASELINE:-BENCH_0006.json}"
threshold="${BENCH_THRESHOLD:-0.10}"
diff_out="${BENCH_DIFF_OUT:-bench-diff.txt}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Three full passes over the set, not -count 3: repeats of one
# benchmark are then minutes apart, so a steal-time burst on a shared
# box cannot slow every repeat, and the comparator's min-of-runs
# reduction recovers the quiet value.
run_benches() (
	cd "$1"
	for _pass in 1 2 3; do
		go test -run '^$' -bench 'BenchmarkFig1StreamCPI$' -benchtime 3x .
		go test -run '^$' -bench 'BenchmarkSimRate$|BenchmarkStepCompute|BenchmarkStepObserver|BenchmarkStepMemBound' \
			-benchtime 300000x ./internal/smt
		go test -run '^$' -bench 'BenchmarkStreamCell' -benchtime 10x ./internal/smt
		go test -run '^$' -bench 'BenchmarkKernelCell' -benchtime 5x ./internal/smt
	done
)

selftest() {
	# Synthesize a fresh run 11% slower than a recorded baseline and
	# assert the gate exits non-zero; then assert the unmodified run
	# passes. Complements the comparator's Go unit tests end to end.
	cat >"$tmp/base.txt" <<-'EOF'
		BenchmarkSelfTest 	 100	 1000000 ns/op	       0 B/op	       0 allocs/op
	EOF
	cat >"$tmp/slow.txt" <<-'EOF'
		BenchmarkSelfTest 	 100	 1110000 ns/op	       0 B/op	       0 allocs/op
	EOF
	go run ./cmd/benchgate record -out "$tmp/base.json" <"$tmp/base.txt"
	if go run ./cmd/benchgate gate -baseline "$tmp/base.json" -threshold "$threshold" <"$tmp/slow.txt"; then
		echo "bench-gate selftest FAILED: +11% slowdown passed the gate" >&2
		exit 1
	fi
	go run ./cmd/benchgate gate -baseline "$tmp/base.json" -threshold "$threshold" <"$tmp/base.txt" >/dev/null
	echo "bench-gate selftest ok: injected +11% slowdown goes red, clean run stays green"
}

case "${1:-}" in
--selftest)
	selftest
	exit 0
	;;
--against)
	ref="${2:?usage: bench-gate.sh --against REF}"
	echo "recording same-machine baseline at $ref ..."
	git worktree add --detach "$tmp/base-tree" "$ref" >/dev/null
	trap 'git worktree remove --force "$tmp/base-tree" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
	run_benches "$tmp/base-tree" | tee "$tmp/base-bench.txt"
	go run ./cmd/benchgate record -out "$tmp/baseline.json" \
		-commit "$(git rev-parse "$ref")" <"$tmp/base-bench.txt"
	baseline="$tmp/baseline.json"
	;;
"") ;;
*)
	echo "usage: bench-gate.sh [--against REF | --selftest]" >&2
	exit 2
	;;
esac

[ -f "$baseline" ] || { echo "bench-gate: baseline $baseline not found (run scripts/bench-record.sh)" >&2; exit 2; }

echo "running gated benchmark set ..."
run_benches . | tee "$tmp/fresh.txt"

# Best-effort statistical diff for the artifact; never authoritative.
if [ -f "$tmp/base-bench.txt" ] && command -v benchstat >/dev/null 2>&1; then
	benchstat "$tmp/base-bench.txt" "$tmp/fresh.txt" >"$diff_out.benchstat" 2>&1 || true
fi

status=0
go run ./cmd/benchgate gate -baseline "$baseline" -threshold "$threshold" \
	<"$tmp/fresh.txt" >"$diff_out" || status=$?
cat "$diff_out"
exit "$status"
