#!/bin/sh
# Cluster smoke test of the coordinator/worker sharding stack, run by
# the cluster-smoke CI job and `make cluster-smoke`. One coordinator,
# three -join workers on a shared disk store, four phases:
#
#   A. parity: the committed Figure 1 study run through the coordinator
#      (one job of its 30 cells) is byte-identical to
#      studies/testdata/fig1.golden;
#   B. warm restart: the whole worker fleet is drained and replaced,
#      and the fresh fleet serves a re-run of the study entirely from
#      the shared store — zero cells simulated, store hits on the fresh
#      workers (so the job reached them: the coordinator dedupes an
#      idempotency key only onto a live job), bytes identical;
#   C. work stealing: jobs queued directly on one worker make the
#      coordinator reroute that owner's cells to idle workers
#      (smtd_cluster_steals_total advances);
#   D. chaos: SIGKILL the worker running an mm-64 kernel cell mid-run;
#      the coordinator migrates the cell to a survivor, which resumes
#      from the dead worker's checkpoint in the shared store and
#      produces a result byte-identical to an uninterrupted control.
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
go build -o "$bin/smtctl" ./cmd/smtctl

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
pid_of() { cat "$work/$1.pid"; }

stop_daemon() {
	p="$(pid_of "$1")"
	kill -TERM "$p"
	wait "$p"
}

kill9_daemon() {
	p="$(pid_of "$1")"
	kill -9 "$p"
	wait "$p" 2>/dev/null || true
}

ctl() {
	"$bin/smtctl" -addr "$(addr_of coord)" "$@"
}

# metric <tag> <name>
metric() {
	curl -sf "http://$(addr_of "$1")/metrics" | awk -v m="$2" '$1 == m { print $2 }'
}

# Workers share one store directory: results and checkpoints written by
# any worker are readable by every other, which is what warm restarts
# and checkpoint migration lean on.
start_worker() {
	start_daemon "$1" -join "$(addr_of coord)" -name "$1" \
		-store "$work/store" -checkpoint-cycles 5000 -jobs 1 -workers 2
}

# wait_live <n> — block until the coordinator sees n live workers.
wait_live() {
	i=0
	until curl -sf "http://$(addr_of coord)/v1/cluster" | grep -q "\"live\": $1,"; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "fleet never reached $1 live workers" >&2
			curl -s "http://$(addr_of coord)/v1/cluster" >&2
			exit 1
		fi
		sleep 0.1
	done
}

echo "== -peer outside an HA coordinator setup is refused cleanly"
# A plain daemon must not half-enter HA mode: -peer without -coordinator
# (and -coordinator -peer without the shared -store) are usage errors,
# not silently ignored flags.
if "$bin/smtd" -peer 127.0.0.1:1 >/dev/null 2>"$work/peer-refused.txt"; then
	echo "smtd accepted -peer without -coordinator" >&2
	exit 1
fi
grep -q -- "-peer requires -coordinator" "$work/peer-refused.txt"
if "$bin/smtd" -coordinator -peer 127.0.0.1:1 >/dev/null 2>"$work/peer-nostore.txt"; then
	echo "smtd accepted -coordinator -peer without -store" >&2
	exit 1
fi
grep -q -- "-peer requires -store" "$work/peer-nostore.txt"

echo "== start coordinator + 3 joined workers on a shared store"
start_daemon coord -coordinator -health-interval 100ms
start_worker w1
start_worker w2
start_worker w3
wait_live 3
ctl cluster >"$work/cluster.txt"
grep -q "live 3/3" "$work/cluster.txt"

echo "== phase A: fig1 via the coordinator == the golden, byte for byte"
ctl study run -via daemon -f studies/fig1.study.json -dir "$work/cold"
diff studies/testdata/fig1.golden "$work/cold/fig1/tables/fig1.txt"

echo "== phase B: fresh fleet serves a warm fig1 with zero simulations"
for w in w1 w2 w3; do stop_daemon "$w"; done
start_worker w1
start_worker w2
start_worker w3
wait_live 3
ctl study run -via daemon -f studies/fig1.study.json -dir "$work/warm"
diff studies/testdata/fig1.golden "$work/warm/fig1/tables/fig1.txt"
sim=0
hits=0
for w in w1 w2 w3; do
	sim=$((sim + $(metric "$w" smtd_cells_simulated_total)))
	hits=$((hits + $(metric "$w" smtd_store_hits_total)))
done
if [ "$sim" -ne 0 ]; then
	echo "warm fleet simulated $sim cells, want 0 (shared store must serve them)" >&2
	exit 1
fi
if [ "$hits" -eq 0 ]; then
	echo "warm fleet recorded no store hits: the warm job never reached the workers" >&2
	exit 1
fi

echo "== phase C: cells owned by an overloaded worker are stolen"
# Queue kernel jobs directly on w1 (its -jobs 1 keeps the extras
# queued), then batch stream cells through the coordinator: groups
# owned by w1 must reroute to the idle workers. The sizes differ so
# the content-keyed idempotency dedupe sees three jobs, not one (mm
# sizes must be powers of two; largest first keeps the queue deep
# while the coordinator routes the batch).
for size in 64 32 16; do
	"$bin/smtctl" -addr "$(addr_of w1)" \
		submit -kernel mm -mode tlp-coarse -size "$size" >>"$work/direct-jobs.txt"
done
{
	printf '{"cells":['
	sep=""
	w=50000
	while [ "$w" -lt 50016 ]; do
		printf '%s{"type":"stream","window":%d,"streams":[{"kind":"fadd"},{"kind":"iload"}]}' "$sep" "$w"
		sep=","
		w=$((w + 1))
	done
	printf ']}\n'
} >"$work/batch.json"
js="$(ctl submit -f "$work/batch.json")"
ctl wait -q "$js"
steals="$(metric coord smtd_cluster_steals_total)"
if [ "$steals" -lt 1 ]; then
	echo "smtd_cluster_steals_total = $steals, want >= 1" >&2
	curl -s "http://$(addr_of coord)/v1/cluster" >&2
	exit 1
fi
while read -r id; do
	"$bin/smtctl" -addr "$(addr_of w1)" wait -q "$id"
done <"$work/direct-jobs.txt"

echo "== phase D: control run for the chaos comparison (separate store)"
start_daemon ctrl -store "$work/store-control"
jc="$("$bin/smtctl" -addr "$(addr_of ctrl)" submit -kernel mm -mode tlp-fine -size 64)"
"$bin/smtctl" -addr "$(addr_of ctrl)" wait -q "$jc"
"$bin/smtctl" -addr "$(addr_of ctrl)" result -cell 0 "$jc" >"$work/kernel-control.json"
stop_daemon ctrl

echo "== phase D: SIGKILL the worker mid-kernel, survivor resumes from checkpoint"
for w in w1 w2 w3; do
	metric "$w" smtd_checkpoints_written_total >"$work/$w.ckpt0" || echo 0 >"$work/$w.ckpt0"
done
jx="$(ctl submit -kernel mm -mode tlp-fine -size 64)"
victim=""
i=0
while [ -z "$victim" ]; do
	for w in w1 w2 w3; do
		base="$(cat "$work/$w.ckpt0")"
		now="$(metric "$w" smtd_checkpoints_written_total 2>/dev/null || echo "$base")"
		if [ "${now:-0}" -gt "${base:-0}" ]; then
			victim="$w"
			break
		fi
	done
	i=$((i + 1))
	if [ "$i" -gt 200 ]; then
		echo "no worker wrote a checkpoint for the chaos kernel" >&2
		curl -s "http://$(addr_of coord)/v1/cluster" >&2
		exit 1
	fi
	sleep 0.05
done
echo "   victim: $victim"
kill9_daemon "$victim"
ctl wait -q "$jx"
recovered="$(metric coord smtd_cluster_jobs_recovered_total)"
lost="$(metric coord smtd_cluster_workers_lost_total)"
if [ "$recovered" -lt 1 ] || [ "$lost" -lt 1 ]; then
	echo "jobs_recovered=$recovered workers_lost=$lost, want both >= 1" >&2
	curl -s "http://$(addr_of coord)/metrics" >&2
	exit 1
fi
saved=0
for w in w1 w2 w3; do
	[ "$w" = "$victim" ] && continue
	saved=$((saved + $(metric "$w" smtd_resume_cycles_saved_total)))
done
if [ "$saved" -le 0 ]; then
	echo "survivors saved $saved resume cycles: the migrated cell re-ran from cycle zero" >&2
	exit 1
fi
ctl result -cell 0 "$jx" >"$work/kernel-chaos.json"
diff "$work/kernel-control.json" "$work/kernel-chaos.json"

for w in w1 w2 w3; do
	[ "$w" = "$victim" ] && continue
	stop_daemon "$w"
done
stop_daemon coord
grep -q "smtd: bye" "$work/coord.log"

echo "cluster smoke OK: fig1 byte-identical through the coordinator, warm fleet simulated 0 cells, $steals steal(s), killed worker's kernel resumed on a survivor ($saved cycles saved) byte-identical to control"
