#!/bin/sh
# Multi-tenant isolation smoke, run by the load-smoke CI job and
# `make load-smoke`. The loadgen harness drives open-loop Poisson
# traffic at smtd and proves the SLOs the tenancy layer exists for:
#
#   A. solo baseline: the light tenant alone against a quota-configured
#      daemon; its report is the reference for the relative assertions;
#   B. contention: the same light tenant plus a 10x-heavier neighbour
#      (10x the arrival rate, 8x the cells per job). The light tenant
#      must keep >= 80% of its solo goodput and <= 2x its solo p99
#      while the heavy tenant is shed with named quota causes — noisy
#      neighbours feel their own backpressure, not their victim's;
#   C. chaos: a coordinator with two workers on a shared store, with
#      loadgen SIGKILLing one worker mid-run. Every light-tenant job
#      must still finish (migration, not failure).
#
# Each run re-starts the daemon so result caching cannot flatter the
# contended run. Arrival schedules are seeded, so the light tenant
# submits the identical job sequence in phases A and B.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"

PIDS=""
cleanup() {
	for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$bin/smtd" ./cmd/smtd
go build -o "$bin/loadgen" ./cmd/loadgen

# start_daemon <tag> [smtd flags...] — binds a random port, writes
# $work/<tag>.addr and $work/<tag>.pid, logs to $work/<tag>.log.
start_daemon() {
	tag="$1"
	shift
	rm -f "$work/$tag.addr"
	"$bin/smtd" -addr 127.0.0.1:0 -addr-file "$work/$tag.addr" "$@" \
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

# The quota config under test: the heavy tenant is allowed a small
# backlog and bounded concurrency; the light tenant outweighs it 8:1
# in the fair-share scheduler.
cat >"$work/tenants.json" <<'EOF'
{
  "tenants": {
    "light": {"weight": 8},
    "heavy": {"weight": 1, "max_queued_jobs": 3, "max_active_cells": 48}
  }
}
EOF

# The light tenant's traffic is identical in both scenarios (same name,
# same seed => same arrival schedule and windows).
cat >"$work/solo.json" <<'EOF'
{
  "seed": 4242,
  "duration": "5s",
  "settle": "60s",
  "tenants": [
    {"name": "light", "rate_hz": 4, "cells_per_job": 1, "priority": 5,
     "window_base": 800000}
  ]
}
EOF

cat >"$work/contended.json" <<'EOF'
{
  "seed": 4242,
  "duration": "5s",
  "settle": "60s",
  "tenants": [
    {"name": "light", "rate_hz": 4, "cells_per_job": 1, "priority": 5,
     "window_base": 800000},
    {"name": "heavy", "rate_hz": 40, "cells_per_job": 8,
     "window_base": 50000}
  ]
}
EOF

echo "== phase A: light tenant solo (baseline)"
start_daemon solo -jobs 2 -workers 2 -queue 32 \
	-tenants "$work/tenants.json" -queue-wait-target 2s
"$bin/loadgen" -scenario "$work/solo.json" -addr "$(addr_of solo)" \
	-out "$work/solo-report.json" \
	-assert done-min:light:12
stop_daemon solo

echo "== phase B: light tenant vs a 10x-heavier neighbour"
start_daemon mixed -jobs 2 -workers 2 -queue 32 \
	-tenants "$work/tenants.json" -queue-wait-target 2s
"$bin/loadgen" -scenario "$work/contended.json" -addr "$(addr_of mixed)" \
	-out "$work/contended-report.json" \
	-baseline "$work/solo-report.json" \
	-assert goodput-frac:light:0.8 \
	-assert p99-factor:light:2 \
	-assert done-min:light:12 \
	-assert no-failed:light \
	-assert shed-cause-min:heavy:queued-jobs:5

# The heavy tenant's sheds must show up attributed on /metrics too.
curl -sf "http://$(addr_of mixed)/metrics" >"$work/mixed.metrics"
grep -q 'smtd_tenant_shed_total{tenant="heavy",cause="queued-jobs"} [1-9]' "$work/mixed.metrics" || {
	echo "heavy tenant sheds missing from /metrics" >&2
	grep 'smtd_tenant' "$work/mixed.metrics" >&2 || true
	exit 1
}
grep -q 'smtd_tenant_jobs_admitted_total{tenant="light"} [1-9]' "$work/mixed.metrics" || {
	echo "light tenant admissions missing from /metrics" >&2
	exit 1
}
stop_daemon mixed

echo "== phase C: worker SIGKILL mid-run must not fail the light tenant"
mkdir -p "$work/store"
start_daemon coord -coordinator
start_daemon w0 -join "$(addr_of coord)" -name w0 \
	-store "$work/store" -jobs 2 -workers 2
start_daemon w1 -join "$(addr_of coord)" -name w1 \
	-store "$work/store" -jobs 2 -workers 2
i=0
until curl -sf "http://$(addr_of coord)/v1/cluster" | grep -q '"live": 2,'; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo "workers never joined" >&2; exit 1; }
	sleep 0.1
done

cat >"$work/chaos.json" <<EOF
{
  "seed": 77,
  "duration": "6s",
  "settle": "60s",
  "tenants": [
    {"name": "light", "rate_hz": 4, "cells_per_job": 2, "priority": 5,
     "window_base": 400000}
  ],
  "phases": [
    {"at": "2s", "kind": "kill", "pidfile": "$work/w1.pid"}
  ]
}
EOF
"$bin/loadgen" -scenario "$work/chaos.json" -addr "$(addr_of coord)" \
	-out "$work/chaos-report.json" \
	-assert no-failed:light \
	-assert done-min:light:15
stop_daemon coord
stop_daemon w0

echo "== load smoke OK"
