#!/bin/sh
# Chaos smoke test of the smtd failure-hardening stack, run by the
# chaos-smoke CI job and `make chaos-smoke`. Three phases, each driving
# the daemon through a deterministic fault plan (-fault-plan):
#
#   A. cell panic + wedged cell + SIGKILL mid-job: the panic is isolated
#      to its cell, the watchdog fails the wedged cell, and after an
#      unclean kill the journal re-runs the in-flight job of the sync
#      ablation's three cells (~2 s of simulation, a wide kill window) on
#      restart; the ablations study then runs against the daemon, and
#      its four synthesized tables must be byte-identical to their
#      goldens in studies/testdata;
#   B. disk read errors: the circuit breaker degrades the daemon to
#      memory-only caching (healthz "degraded", jobs keep succeeding
#      with identical results), then heals through healthz probes;
#   C. queue backpressure: a full queue 429s a submission and smtctl
#      retries with backoff until it is accepted;
#   D. checkpoint resume: SIGKILL the daemon mid-kernel-run with
#      -checkpoint-cycles armed; the restarted daemon must resume the
#      recovered job from the on-disk checkpoint (not cycle zero) and
#      produce a result byte-identical to an uninterrupted control run.
#
# Every phase ends with all jobs terminal; nothing may be stuck.
set -eu

cd "$(dirname "$0")/.."
work="$(mktemp -d)"
bin="$work/bin"
mkdir -p "$bin"

cleanup() {
	[ -n "${SMTD_PID:-}" ] && kill -9 "$SMTD_PID" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$bin/smtd" ./cmd/smtd
go build -o "$bin/smtctl" ./cmd/smtctl

# start_daemon <log> [smtd flags...]
start_daemon() {
	log="$1"
	shift
	rm -f "$work/addr"
	"$bin/smtd" -addr 127.0.0.1:0 -addr-file "$work/addr" "$@" \
		>>"$work/$log" 2>&1 &
	SMTD_PID=$!
	i=0
	while [ ! -s "$work/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smtd never wrote its addr file" >&2
			cat "$work/$log" >&2
			exit 1
		fi
		kill -0 "$SMTD_PID" 2>/dev/null || {
			echo "smtd exited early" >&2
			cat "$work/$log" >&2
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

kill9_daemon() {
	kill -9 "$SMTD_PID"
	wait "$SMTD_PID" 2>/dev/null || true
	SMTD_PID=
}

ctl() {
	"$bin/smtctl" -addr "$ADDR" "$@"
}

metric() {
	curl -sf "http://$ADDR/metrics" | awk -v m="$1" '$1 == m { print $2 }'
}

# expect_failure <outfile> <what> <cmd...> — the command must exit
# non-zero, with its combined output captured for grepping.
expect_failure() {
	out="$1"
	what="$2"
	shift 2
	if "$@" >"$work/$out" 2>&1; then
		echo "expected $what to fail" >&2
		cat "$work/$out" >&2
		exit 1
	fi
}

# all_terminal — no job or cell may be left queued, running or pending.
all_terminal() {
	curl -sf "http://$ADDR/v1/jobs" >"$work/jobs.json"
	if grep -qE '"state": "(queued|running|pending)"' "$work/jobs.json"; then
		echo "non-terminal jobs survived the chaos:" >&2
		cat "$work/jobs.json" >&2
		exit 1
	fi
}

echo "== phase A: panic isolation, watchdog, SIGKILL + journal recovery"
cat >"$work/plan-a.json" <<'EOF'
{
  "seed": 1,
  "rules": [
    {"point": "exec.cell", "action": "panic", "error": "chaos: injected cell panic", "count": 1},
    {"point": "exec.cell", "action": "latency", "latency_ms": 10000, "after": 1, "count": 1}
  ]
}
EOF
start_daemon smtd-a.log -store "$work/store-a" -journal "$work/journal-a" \
	-cell-timeout 2s -jobs 1 -workers 1 -fault-plan "$work/plan-a.json"
grep -q "chaos mode" "$work/smtd-a.log"

# Sacrifice 1: the injected panic must fail its cell, not the daemon.
j1="$(ctl submit -stream fadd -window 2000)"
expect_failure wait-j1.out "panicked job $j1" ctl wait "$j1"
grep -q "cell panicked" "$work/wait-j1.out"
kill -0 "$SMTD_PID" # the daemon survived the panic

# Sacrifice 2: the 10s wedge must be cut down by the 2s watchdog.
j2="$(ctl submit -stream fmul -window 2000)"
expect_failure wait-j2.out "wedged job $j2" ctl wait "$j2"
grep -q "watchdog" "$work/wait-j2.out"

# The real workload: the sync ablation's cells, accepted (journaled),
# then the daemon dies hard before it can finish.
cat >"$work/sync-cells.json" <<'EOF'
{"cells": [
  {"type": "kernel", "kernel": "mm", "size": 64, "mode": "tlp-pfetch", "variant": "wait=spin"},
  {"type": "kernel", "kernel": "mm", "size": 64, "mode": "tlp-pfetch", "variant": "wait=spin+pause"},
  {"type": "kernel", "kernel": "mm", "size": 64, "mode": "tlp-pfetch", "variant": "wait=halt"}
]}
EOF
job="$(ctl submit -f "$work/sync-cells.json")"
kill9_daemon
[ "$(ls "$work/journal-a"/*.job | wc -l)" -gt 0 ]

echo "== phase A: restart recovers the in-flight job"
start_daemon smtd-a.log -store "$work/store-a" -journal "$work/journal-a"
grep -q "recovered" "$work/smtd-a.log"
g_start="$(metric smtd_goroutines)"
ctl wait "$job"
ctl study run -via daemon -f studies/ablations.study.json -dir "$work/abl"
for t in sync span partition selective; do
	diff "studies/testdata/$t.golden" "$work/abl/ablations/tables/$t.txt"
done
all_terminal
recovered="$(metric smtd_jobs_recovered_total)"
if [ "$recovered" -lt 1 ]; then
	echo "smtd_jobs_recovered_total = $recovered, want >= 1" >&2
	exit 1
fi
sleep 1
g_end="$(metric smtd_goroutines)"
if [ "$g_end" -gt $((g_start + 10)) ]; then
	echo "goroutines grew from $g_start to $g_end across the recovered run" >&2
	exit 1
fi
stop_daemon
grep -q "smtd: bye" "$work/smtd-a.log"

echo "== phase B: disk errors degrade to memory-only caching, then heal"
# Warm the store fault-free so the chaos run has entries to fail reading.
start_daemon smtd-b.log -store "$work/store-b" -journal "$work/journal-b"
jb="$(ctl submit -stream fadd -window 2000)"
ctl wait "$jb"
ctl result -cell 0 "$jb" >"$work/cell-clean.json"
stop_daemon

cat >"$work/plan-b.json" <<'EOF'
{
  "seed": 1,
  "rules": [
    {"point": "store.read", "action": "error", "error": "chaos: disk read error", "count": 1}
  ]
}
EOF
start_daemon smtd-b.log -store "$work/store-b" -journal "$work/journal-b" \
	-breaker-threshold 1 -breaker-cooldown 2s -fault-plan "$work/plan-b.json"
jb2="$(ctl submit -stream fadd -window 2000)"
ctl wait "$jb2" # the job must succeed despite the sick disk
ctl result -cell 0 "$jb2" >"$work/cell-chaos.json"
diff "$work/cell-clean.json" "$work/cell-chaos.json"
health="$(curl -s "http://$ADDR/healthz")"
if [ "$health" != "degraded" ]; then
	echo "healthz said '$health' right after the disk failure, want 'degraded'" >&2
	exit 1
fi
i=0
until [ "$(curl -s "http://$ADDR/healthz")" = "ok" ]; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "store never recovered: healthz still $(curl -s "http://$ADDR/healthz")" >&2
		curl -s "http://$ADDR/metrics" >&2
		exit 1
	fi
	sleep 0.2
done
trips="$(metric smtd_store_breaker_trips_total)"
io_errors="$(metric smtd_store_io_errors_total)"
if [ "$trips" -lt 1 ] || [ "$io_errors" -lt 1 ]; then
	echo "breaker trips=$trips io_errors=$io_errors, want both >= 1" >&2
	exit 1
fi
curl -sf "http://$ADDR/metrics" >"$work/metrics-b.txt"
for m in smtd_store_corrupt_total smtd_store_evictions_total smtd_store_degraded; do
	grep -q "^$m " "$work/metrics-b.txt" || {
		echo "metric $m missing from /metrics" >&2
		exit 1
	}
done
all_terminal
stop_daemon

echo "== phase C: backpressure 429 is retried, not fatal"
cat >"$work/plan-c.json" <<'EOF'
{
  "seed": 1,
  "rules": [
    {"point": "exec.cell", "action": "latency", "latency_ms": 1500, "count": 2}
  ]
}
EOF
start_daemon smtd-c.log -journal "$work/journal-c" \
	-jobs 1 -queue 1 -workers 1 -fault-plan "$work/plan-c.json"
ja="$(ctl submit -stream fadd -window 2000)"
sleep 0.3 # let the worker pick ja up so jb lands in the queue
jb="$(ctl submit -stream fmul -window 2000)"
jc="$("$bin/smtctl" -addr "$ADDR" -max-retries 10 \
	submit -stream iadd -window 2000 2>"$work/submit-c.err")"
grep -q "retrying" "$work/submit-c.err"
for id in "$ja" "$jb" "$jc"; do
	ctl wait "$id"
done
all_terminal
stop_daemon

echo "== phase D: control run for the checkpoint-resume comparison"
start_daemon smtd-d.log -store "$work/store-d-control"
jd_control="$(ctl submit -kernel mm -mode tlp-fine -size 64)"
ctl wait -q "$jd_control"
ctl result -cell 0 "$jd_control" >"$work/kernel-control.json"
stop_daemon

echo "== phase D: SIGKILL mid-kernel-run, restart resumes from checkpoint"
start_daemon smtd-d.log -store "$work/store-d" -journal "$work/journal-d" \
	-jobs 1 -workers 1 -checkpoint-cycles 5000
jd="$(ctl submit -kernel mm -mode tlp-fine -size 64)"
# Wait for the cell to park at least one checkpoint in the store, then
# kill the daemon hard while the kernel is still mid-run.
i=0
until [ "$(metric smtd_checkpoints_written_total)" -ge 1 ] 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "no checkpoint written before the kill" >&2
		curl -s "http://$ADDR/metrics" >&2
		exit 1
	fi
	sleep 0.05
done
kill9_daemon

start_daemon smtd-d.log -store "$work/store-d" -journal "$work/journal-d" \
	-jobs 1 -workers 1 -checkpoint-cycles 5000
grep -q "recovered" "$work/smtd-d.log"
ctl wait -q "$jd"
restored="$(metric smtd_checkpoints_restored_total)"
saved="$(metric smtd_resume_cycles_saved_total)"
if [ "$restored" -lt 1 ] || [ "$saved" -le 0 ]; then
	echo "restored=$restored cycles_saved=$saved: restart re-ran from cycle zero" >&2
	curl -s "http://$ADDR/metrics" >&2
	exit 1
fi
ctl result -cell 0 "$jd" >"$work/kernel-resumed.json"
diff "$work/kernel-control.json" "$work/kernel-resumed.json"
all_terminal
stop_daemon

echo "chaos smoke OK: panic isolated, watchdog fired, crash recovered (ablation tables byte-identical), store degraded and healed, 429 retried, SIGKILL'd kernel resumed from checkpoint byte-identical"
