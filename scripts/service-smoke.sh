#!/bin/sh
# End-to-end smoke test of the smtd daemon + smtctl client, run by the
# service-smoke CI job and `make service-smoke`:
#
#   1. build smtd/smtctl, start the daemon on a random port with a disk
#      store, submit a stream pair, then run the committed Figure 1 study
#      through the daemon (one job of its 30 cells);
#   2. assert the study's Figure 1 table is byte-identical to
#      studies/testdata/fig1.golden;
#   3. SIGTERM the daemon and verify the graceful drain completed;
#   4. restart on the same store, re-run the study, and assert the warm
#      run simulated zero cells (everything served from disk) with
#      identical output. The restarted daemon has no journal, so its
#      idempotency table is empty: the warm job reaches the workers, and
#      its store hits prove it.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
store="$work/store"
mkdir -p "$bin"

cleanup() {
	[ -n "${SMTD_PID:-}" ] && kill "$SMTD_PID" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$bin/smtd" ./cmd/smtd
go build -o "$bin/smtctl" ./cmd/smtctl

start_daemon() {
	rm -f "$work/addr"
	"$bin/smtd" -addr 127.0.0.1:0 -addr-file "$work/addr" -store "$store" \
		>>"$work/smtd.log" 2>&1 &
	SMTD_PID=$!
	i=0
	while [ ! -s "$work/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smtd never wrote its addr file" >&2
			cat "$work/smtd.log" >&2
			exit 1
		fi
		kill -0 "$SMTD_PID" 2>/dev/null || {
			echo "smtd exited early" >&2
			cat "$work/smtd.log" >&2
			exit 1
		}
		sleep 0.1
	done
	ADDR="$(cat "$work/addr")"
}

stop_daemon() {
	kill -TERM "$SMTD_PID"
	wait "$SMTD_PID"
	SMTD_PID=
}

metric() {
	curl -sf "http://$ADDR/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

echo "== cold run"
start_daemon
job="$("$bin/smtctl" -addr "$ADDR" submit -stream fadd,iload -ilp max -window 120000)"
"$bin/smtctl" -addr "$ADDR" wait "$job"
"$bin/smtctl" -addr "$ADDR" study run -via daemon -f studies/fig1.study.json -dir "$work/cold"

echo "== daemon output vs the golden"
diff studies/testdata/fig1.golden "$work/cold/fig1/tables/fig1.txt"

echo "== graceful shutdown"
stop_daemon
grep -q "smtd: bye" "$work/smtd.log"
[ "$(ls "$store"/*.cell | wc -l)" -gt 0 ]

echo "== warm restart on the same store"
start_daemon
"$bin/smtctl" -addr "$ADDR" study run -via daemon -f studies/fig1.study.json -dir "$work/warm"
diff "$work/cold/fig1/tables/fig1.txt" "$work/warm/fig1/tables/fig1.txt"

simulated="$(metric smtd_cells_simulated_total)"
hits="$(metric smtd_store_hits_total)"
if [ "$simulated" != "0" ]; then
	echo "warm run simulated $simulated cells, want 0 (store hits: $hits)" >&2
	exit 1
fi
if [ "$hits" = "0" ]; then
	echo "warm run recorded no store hits" >&2
	exit 1
fi
stop_daemon

echo "service smoke OK: warm run served ${hits} cells from the store, 0 simulated"
