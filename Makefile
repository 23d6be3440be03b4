# Local mirror of .github/workflows/ci.yml — `make ci` runs the exact
# gate a PR must pass; the finer targets match the individual CI steps.

GO ?= go

.PHONY: ci build fmt vet test flake-guard race fuzz-smoke bench-smoke bench-gate bench-record service-smoke chaos-smoke cluster-smoke ha-smoke study-smoke load-smoke obs-artifacts

ci: build fmt vet test flake-guard race fuzz-smoke bench-smoke bench-gate service-smoke chaos-smoke cluster-smoke ha-smoke study-smoke load-smoke obs-artifacts

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on -timeout 30m ./...

# Ordering races that fail one run in five (a terminal journal write
# racing the job's Done channel, a breaker cooldown shorter than one
# request, the coordinator's progress streams, the SSE headers of a
# still-queued job, the daemon/coordinator edge parity, a worker death
# racing the job's end, the job-API client's stream replay and resume)
# must fail the gate, not surface as a rare flake.
flake-guard:
	$(GO) test ./internal/service/ -run 'TestJournalRecoveryReRunsLostJobs$$|TestHTTPHealthzDegradedAndRecovery$$' -count=40
	$(GO) test ./internal/cluster/ -run '^TestStream|^TestEdge' -count=40
	$(GO) test -race ./internal/cluster/ -run 'TestDeathWithNoSurvivorFailsExplicitly$$' -count=30
	$(GO) test ./internal/api/ -run 'TestFollowReplayResumeAndNotFound$$' -count=40

race:
	$(GO) test -race -timeout 50m ./...

# Short coverage-guided runs of every fuzz target (the committed seed
# corpora replay in `make test`; this hunts for new inputs).
fuzz-smoke:
	$(GO) test ./internal/uasm -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/uasm -fuzz FuzzDisasmRoundTrip -fuzztime 10s
	$(GO) test ./internal/uasm -fuzz FuzzCount -fuzztime 10s
	$(GO) test ./internal/isa -fuzz FuzzInstrValidate -fuzztime 10s
	$(GO) test ./internal/isa -fuzz FuzzInstrConstruct -fuzztime 10s
	$(GO) test ./internal/checkpoint -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/study/spec -fuzz FuzzParseSpec -fuzztime 10s
	$(GO) test ./internal/loadgen -fuzz FuzzParseScenario -fuzztime 10s

# One end-to-end regeneration of every figure/table, plus the runner's
# synthetic speedup benchmark (CI uploads the combined log as the
# bench-smoke artifact).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' . | tee bench-smoke.txt
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/runner | tee -a bench-smoke.txt

# End-to-end daemon smoke: smtd + smtctl against a disk store, including
# the byte-identical-to-CLI check and the warm-restart zero-simulation
# check (CI runs the same script).
service-smoke:
	./scripts/service-smoke.sh

# Failure-hardening smoke: deterministic fault plans drive cell panics,
# wedged cells, disk errors, a SIGKILL mid-job and queue backpressure
# through smtd; every job must end terminal and the recovered Figure 1
# text must be byte-identical to the fault-free run (CI runs the same
# script).
chaos-smoke:
	./scripts/chaos-smoke.sh

# Cluster smoke: a coordinator plus three -join workers on a shared
# store. Asserts coordinator/CLI byte parity, a warm-restarted fleet
# simulating zero cells, work stealing off an overloaded worker, and a
# SIGKILL'd worker's kernel cell resuming from the shared checkpoint on
# a survivor with a byte-identical result (CI runs the same script).
cluster-smoke:
	./scripts/cluster-smoke.sh

# HA smoke: an active/standby coordinator pair on a shared store.
# Asserts lease-based promotion after SIGKILLing the active coordinator
# mid-job (byte-identical results through the standby), rejoin as a
# redirecting standby, and a chaos loadgen run with zero failed
# light-tenant jobs plus a measured failover latency (CI runs the same
# script; HA_BENCH_OUT=path keeps the bench-shape report).
ha-smoke:
	./scripts/ha-smoke.sh

# Multi-tenant SLO smoke: loadgen drives a light tenant and a
# 10x-heavier neighbour at a quota-configured smtd (plus a worker
# SIGKILL against a cluster) and asserts the isolation SLOs: light
# goodput >= 80% of solo, light p99 <= 2x solo, heavy shed with named
# quota causes, and zero light-tenant failures under chaos (CI runs
# the same script).
load-smoke:
	./scripts/load-smoke.sh

# Study-engine smoke: the committed Figure 1 / Table 1 specs must be
# byte-identical to the direct CLIs and warm re-runs must simulate
# zero cells (the dedupe/adoption contract across tools).
study-smoke:
	./scripts/study-smoke.sh

# Sample observability bundle: a Perfetto-loadable pipeline trace, an
# occupancy CSV and a metrics snapshot (CI uploads obs-sample/).
obs-artifacts:
	mkdir -p obs-sample
	$(GO) run ./cmd/smtsim -kernel mm -mode tlp-fine -size 32 \
		-trace obs-sample/mm-tlp-fine.trace.json \
		-occupancy obs-sample/mm-tlp-fine.occupancy.csv \
		-metrics obs-sample/mm-tlp-fine.metrics.json > obs-sample/mm-tlp-fine.stdout.txt
	$(GO) run ./cmd/smtsim -stream fadd,iload -cycles 50000 \
		-trace obs-sample/fadd-iload.trace.json \
		-occupancy obs-sample/fadd-iload.occupancy.csv \
		-metrics obs-sample/fadd-iload.metrics.json > obs-sample/fadd-iload.stdout.txt

# Benchmark-regression gate (mirrors the bench-gate CI job): the gated
# benchmark set — the cold Figure-1 macro-benchmark, the per-cycle
# stepping micro-benchmarks and BenchmarkStreamCell's whole loop-stream
# cells — must hold time/op within 10% of the committed BENCH_0006.json
# baseline and allocs/op from rising (zero on the stepping set). Use
# `scripts/bench-gate.sh --against REF` for a same-machine A/B when the
# local box differs from the one that recorded the baseline.
bench-gate:
	./scripts/bench-gate.sh --selftest
	./scripts/bench-gate.sh

# Re-record the committed benchmark baseline (run on a quiet machine).
bench-record:
	./scripts/bench-record.sh
