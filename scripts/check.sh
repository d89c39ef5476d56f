#!/usr/bin/env sh
# Tier-1 verification gate — the canonical pre-merge check (see README).
# Runs formatting, vet, build, and the full test suite under the race
# detector. Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== bench smoke =="
# One iteration of every wire, router-decision and simulator-placement
# benchmark: catches a hot path that stops compiling or panics without
# paying for a full measurement run.
go test -run '^$' -bench 'BenchmarkWire|BenchmarkHashPolicyOrder|BenchmarkLeastLoadedOrder|BenchmarkRegistryRoutable|BenchmarkMessageTime|BenchmarkGreedyLatencySelect|BenchmarkContinuumValidate' -benchtime=1x ./internal/wire ./internal/federation ./internal/netsim ./internal/placement ./internal/core

echo "== benchmark module =="
# benchmark/ is a module of its own that imports internal/*; the steps
# above do not compile it.
make bench-check

echo "== chaos smoke (-race) =="
# End-to-end reliability gate: fault injection active, one endpoint
# killed mid-run, the reliable client must complete every invocation.
go test -race -count=1 -run 'TestE2EChaosNoRequestLost|TestDeadlineParitySimAndLive' .

echo "== speculation smoke (-race) =="
# Tail-latency gate: engine speculation must rescue stragglers without
# losing or double-completing tasks, and a hedged live client must
# complete every call exactly once with zero breaker trips.
go test -race -count=1 -run 'TestSpeculation' ./internal/core
go test -race -count=1 -run 'TestE2EChaosHedgedNoRequestLost' .

echo "== overload smoke (-race) =="
# Graceful-degradation gate: a 10x flash crowd against an
# admission-controlled endpoint loses no accepted request, sheds
# fail-fast with Retry-After, keeps high-priority p99 bounded, and
# admission-on goodput must be at least admission-off.
go test -race -count=1 -run 'TestE2EOverloadGracefulDegradation' .
go run ./cmd/continuum-bench -overload -overload-gate -overload-dur 1s -overload-out BENCH_overload.json

echo "== engine smoke =="
# Kernel raw-speed gate: a trimmed calendar-vs-baseline benchmark must
# hold the throughput floor, run the steady-state path allocation-free,
# beat the pooled-heap reference, and the sharded-parallel group must
# fire identically serial and parallel.
go run ./cmd/continuum-bench -engine -engine-quick -engine-gate -engine-out BENCH_engine.json

echo "== scenario library validate =="
# Every shipped scenario must pass the DSL validator.
go run ./cmd/continuum-sim scenario validate examples/scenarios/*.json

echo "== scenario smoke (-race) =="
# One scenario file, both backends: non-degenerate simulator report and
# a live in-process fleet replay with zero lost requests.
go test -race -count=1 -run 'TestScenarioBothBackends' .

echo "== federation smoke (-race) =="
# Federated control-plane gate: a router fronting three daemons survives
# one hard kill and one graceful drain with zero accepted requests lost,
# the endpoints op tracks membership on the heartbeat schedule, and a
# router-fronted live scenario replays join/leave churn losslessly.
go test -race -count=1 -run 'TestE2EFederationChurnNoRequestLost' .
go test -race -count=1 -run 'TestLiveRouterChurnZeroLost' ./internal/scenario

echo "== doc lint =="
# Every exported identifier in the operator-facing packages must carry a
# doc comment (wire, faas, federation — the API surface OPERATIONS.md
# and the godoc pass document).
go run ./scripts/doclint ./internal/federation ./internal/wire ./internal/faas

echo "== trace smoke =="
# Distributed-tracing gate: a hedged request across two real continuumd
# processes must assemble into one cross-daemon trace with the client
# root, both hedge arms, queue-wait, and exec spans.
./scripts/trace_smoke.sh

echo "check: all gates passed"
