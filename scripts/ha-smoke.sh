#!/bin/sh
# HA coordinator pair smoke test, run by the ha-smoke CI job and
# `make ha-smoke`. Two coordinators share a store directory (lease +
# replicated routing journal) in front of two workers that heartbeat to
# both. Phases:
#
#   A. leadership: the first coordinator leads, the second tails the
#      journal as a standby; smtctl cluster shows the lease;
#   B. failover: SIGKILL the active coordinator while a kernel job is
#      mid-run; the standby steals the lease, re-adopts the job from
#      the journal, and serves a result byte-identical to an
#      uninterrupted control — then the committed Figure 1 study run
#      through the promoted leader matches studies/testdata/fig1.golden
#      byte for byte;
#   C. rejoin: the killed coordinator restarts as a standby and
#      redirects writes to the leader via X-Cluster-Leader;
#   D. chaos loadgen: open-loop traffic with a mid-run SIGKILL of the
#      (new) active coordinator — zero failed light-tenant jobs, and
#      the report records the measured failover latency.
#
# Set HA_BENCH_OUT=path to keep the bench-shape report (BENCH_0010.json
# was recorded this way). Set HA_KEEP=1 to keep the work directory
# (logs, reports, journals) around for post-mortem debugging.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"

PIDS=""
cleanup() {
	for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
	if [ -n "${HA_KEEP:-}" ]; then
		echo "HA_KEEP set: work dir preserved at $work" >&2
	else
		rm -rf "$work"
	fi
}
trap cleanup EXIT

echo "== build"
go build -o "$bin/smtd" ./cmd/smtd
go build -o "$bin/smtctl" ./cmd/smtctl
go build -o "$bin/loadgen" ./cmd/loadgen

# Each half of the pair needs the other's address before either starts,
# so both ports are picked up front.
cat >"$work/freeport.go" <<'EOF'
package main

import (
	"fmt"
	"net"
)

func main() {
	a, _ := net.Listen("tcp", "127.0.0.1:0")
	b, _ := net.Listen("tcp", "127.0.0.1:0")
	defer a.Close()
	defer b.Close()
	fmt.Println(a.Addr().(*net.TCPAddr).Port, b.Addr().(*net.TCPAddr).Port)
}
EOF
set -- $(go run "$work/freeport.go")
CA="127.0.0.1:$1"
CB="127.0.0.1:$2"

# start_daemon <tag> <addr> [smtd flags...] — writes $work/<tag>.addr
# and $work/<tag>.pid, logs to $work/<tag>.log.
start_daemon() {
	tag="$1"
	addr="$2"
	shift 2
	rm -f "$work/$tag.addr"
	"$bin/smtd" -addr "$addr" -addr-file "$work/$tag.addr" "$@" \
		>>"$work/$tag.log" 2>&1 &
	pid=$!
	PIDS="$PIDS $pid"
	echo "$pid" >"$work/$tag.pid"
	i=0
	while [ ! -s "$work/$tag.addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "$tag never wrote its addr file" >&2
			cat "$work/$tag.log" >&2
			exit 1
		fi
		kill -0 "$pid" 2>/dev/null || {
			echo "$tag exited early" >&2
			cat "$work/$tag.log" >&2
			exit 1
		}
		sleep 0.1
	done
}

addr_of() { cat "$work/$1.addr"; }

stop_daemon() {
	p="$(cat "$work/$1.pid")"
	kill -TERM "$p" 2>/dev/null || true
	wait "$p" 2>/dev/null || true
}

kill9_daemon() {
	p="$(cat "$work/$1.pid")"
	kill -9 "$p"
	wait "$p" 2>/dev/null || true
}

start_coord() { # tag addr peer
	start_daemon "$1" "$2" -coordinator -peer "$3" -store "$work/store" \
		-lease-ttl 500ms -health-interval 100ms -name "$1"
}

start_worker() {
	start_daemon "$1" 127.0.0.1:0 -join "$CA,$CB" -name "$1" \
		-store "$work/store" -checkpoint-cycles 5000 -jobs 2 -workers 2
}

ctl() { "$bin/smtctl" -server "$CA,$CB" "$@"; }

wait_role() { # addr role
	i=0
	until curl -sf "http://$1/v1/cluster" 2>/dev/null | grep -q "\"role\": \"$2\""; do
		i=$((i + 1))
		if [ "$i" -gt 150 ]; then
			echo "$1 never reported role $2" >&2
			curl -s "http://$1/v1/cluster" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
}

wait_live() { # leader-addr n
	i=0
	until curl -sf "http://$1/v1/cluster" | grep -q "\"live\": $2,"; do
		i=$((i + 1))
		if [ "$i" -gt 150 ]; then
			echo "leader never saw $2 live workers" >&2
			curl -s "http://$1/v1/cluster" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
}

wait_job() { # job-id state
	i=0
	until ctl status "$1" 2>/dev/null | grep -q "\"state\": \"$2\""; do
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "job $1 never reached $2" >&2
			ctl status "$1" >&2 || true
			exit 1
		fi
		sleep 0.1
	done
}

echo "== phase A: HA pair + 2 workers; first coordinator leads"
start_coord ca "$CA" "$CB"
wait_role "$CA" leader
start_coord cb "$CB" "$CA"
wait_role "$CB" standby
start_worker w1
start_worker w2
wait_live "$CA" 2
ctl cluster >"$work/cluster0.txt"
grep -q "ha: role leader" "$work/cluster0.txt"
grep -q "lease term" "$work/cluster0.txt"

echo "== control results on an isolated daemon (separate store)"
start_daemon ctrl 127.0.0.1:0 -store "$work/store-control"
CTRL="$(addr_of ctrl)"
jc="$("$bin/smtctl" -addr "$CTRL" submit -kernel mm -mode tlp-fine -size 64)"
"$bin/smtctl" -addr "$CTRL" wait -q "$jc"
"$bin/smtctl" -addr "$CTRL" result -cell 0 "$jc" >"$work/kernel-control.json"
stop_daemon ctrl

echo "== phase B: SIGKILL the active coordinator mid-kernel"
jx="$(ctl submit -kernel mm -mode tlp-fine -size 64)"
wait_job "$jx" running
sleep 0.3
kill9_daemon ca
wait_job "$jx" done
ctl result -cell 0 "$jx" >"$work/kernel-failover.json"
diff "$work/kernel-control.json" "$work/kernel-failover.json"
wait_role "$CB" leader
curl -sf "http://$CB/v1/cluster" >"$work/topo-after.json"
grep -q '"promotions": 1' "$work/topo-after.json"
grep -q '"jobs_adopted"' "$work/topo-after.json"
grep -q '"failover_latency_seconds"' "$work/topo-after.json"

echo "== phase B: fig1 through the promoted leader == the golden, byte for byte"
ctl study run -via daemon -f studies/fig1.study.json -dir "$work/ha-study"
diff studies/testdata/fig1.golden "$work/ha-study/fig1/tables/fig1.txt"

echo "== phase C: the killed coordinator rejoins as a redirecting standby"
start_coord ca "$CA" "$CB"
wait_role "$CA" standby
curl -s -o /dev/null -D "$work/standby-headers.txt" \
	-X POST -H 'Content-Type: application/json' \
	-d '{"cells":[{"type":"stream","streams":[{"kind":"fadd"}],"window":12345}]}' \
	"http://$CA/v1/jobs" || true
grep -qi "X-Cluster-Leader: $CB" "$work/standby-headers.txt"

echo "== phase D: chaos loadgen kills the active coordinator mid-run"
cat >"$work/chaos.json" <<EOF
{
  "seed": 99,
  "duration": "6s",
  "settle": "60s",
  "tenants": [
    {"name": "light", "rate_hz": 4, "cells_per_job": 2, "priority": 5,
     "window_base": 600000}
  ],
  "phases": [
    {"at": "2s", "kind": "kill", "pidfile": "$work/cb.pid"}
  ]
}
EOF
"$bin/loadgen" -scenario "$work/chaos.json" -addr "$CB,$CA" \
	-out "$work/ha-report.json" -bench-out "$work/BENCH_ha.json" \
	-assert no-failed:light \
	-assert done-min:light:15
grep -q '"HAFailover"' "$work/BENCH_ha.json" || {
	echo "bench output lacks the HAFailover entry (no failover measured?)" >&2
	cat "$work/BENCH_ha.json" >&2
	exit 1
}
failover="$(grep '"failover_latency_s"' "$work/BENCH_ha.json" | head -1 | tr -dc '0-9.')"
if [ -n "${HA_BENCH_OUT:-}" ]; then
	cp "$work/BENCH_ha.json" "$HA_BENCH_OUT"
fi

wait_role "$CA" leader
stop_daemon w1
stop_daemon w2
stop_daemon ca
grep -q "smtd: bye" "$work/ca.log"

echo "ha smoke OK: failover served byte-identical kernel + fig1 results, standby redirects, chaos run had zero failed light jobs, failover latency ${failover}s"
