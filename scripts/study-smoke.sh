#!/bin/sh
# End-to-end smoke test of the study engine, run by the study-smoke CI
# job and `make study-smoke`:
#
#   1. build smtctl and run the committed Figure 1 spec cold; assert the
#      synthesized table is byte-identical to studies/testdata/fig1.golden;
#   2. re-run the same spec over the same store and assert the warm run
#      simulated zero cells with identical bytes;
#   3. warm a store with `paper table1`, then run the committed Table 1
#      Markdown spec against that store — the study must adopt every
#      cell (zero simulations) and reproduce paper's bytes exactly,
#      proving the content keys line up across tools.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"
trap 'rm -rf "$work"' EXIT

echo "== build"
go build -o "$bin/smtctl" ./cmd/smtctl

simulated() {
	# study.json is the persisted summary; pull the simulated count.
	sed -n 's/^ *"simulated": \([0-9-]*\),*$/\1/p' "$1/study.json"
}

echo "== cold fig1 study vs the golden"
"$bin/smtctl" study run -f studies/fig1.study.json -dir "$work/out"
diff studies/testdata/fig1.golden "$work/out/fig1/tables/fig1.txt"
cold="$(simulated "$work/out/fig1")"
if [ "$cold" != "30" ]; then
	echo "cold fig1 study simulated $cold cells, want 30" >&2
	exit 1
fi

echo "== warm fig1 re-run"
"$bin/smtctl" study run -f studies/fig1.study.json -dir "$work/out"
diff studies/testdata/fig1.golden "$work/out/fig1/tables/fig1.txt"
warm="$(simulated "$work/out/fig1")"
if [ "$warm" != "0" ]; then
	echo "warm fig1 study simulated $warm cells, want 0" >&2
	exit 1
fi

echo "== table1 study adopts paper's store"
go run ./cmd/paper -store "$work/kstore" table1 >"$work/table1-direct.txt"
"$bin/smtctl" study run -f studies/table1.study.md -dir "$work/out" -store "$work/kstore"
diff "$work/table1-direct.txt" "$work/out/table1/tables/table1.txt"
t1="$(simulated "$work/out/table1")"
if [ "$t1" != "0" ]; then
	echo "table1 study simulated $t1 cells against a warm store, want 0" >&2
	exit 1
fi

echo "== status/report read back"
"$bin/smtctl" study status -dir "$work/out" fig1 | grep -q '"state": "done"'
"$bin/smtctl" study report -dir "$work/out" fig1 | grep -q '^# Study report'

echo "study smoke OK: fig1 and table1 specs byte-identical to the golden and to paper, warm re-runs simulated 0 cells"
