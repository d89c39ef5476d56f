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
# One iteration of every wire, endpoint-invoke, router-decision,
# router-relay, simulator-placement, engine-dispatch and stress-scenario
# benchmark: catches a hot path that stops compiling or panics without
# paying for a full measurement run. BenchmarkStressScenarioRun's B/op
# and gc/op are the bytes and collections of one sim-stress run;
# BenchmarkKernelFill's allocs/op and peak-heap-MB are those of the
# sim-kernel set-up (fill 1 M events, fire a tenth).
go test -run '^$' -bench 'BenchmarkWire|BenchmarkEndpointInvoke|BenchmarkHashPolicyOrder|BenchmarkLeastLoadedOrder|BenchmarkRegistryRoutable|BenchmarkRouterRelay64K|BenchmarkMessageTime|BenchmarkNetworkBuild|BenchmarkGreedyLatencySelect|BenchmarkEngineOverhead|BenchmarkStressScenarioRun|BenchmarkKernelFill' -benchtime=1x . ./internal/wire ./internal/faas ./internal/federation ./internal/netsim ./internal/placement

echo "== api lint =="
# Doc check: every exported identifier in the operator-facing packages
# (wire, faas, federation — the API surface OPERATIONS.md documents)
# carries a doc comment. Dead check: every package-level declaration in
# internal/ is reachable from a command, example, script or the
# benchmark module. Field check: every exported field of an internal/
# *Config or *Options struct is set by some code outside its package.
# scripts/apilint/allowlist.txt says why each exception stays. Det check:
# in the packages a simulated report, trace or experiment table is
# computed in, every range over a map ranges over sorted keys or gives a
# //det: reason why its order cannot reach the output.
go run ./scripts/apilint -doc ./internal/federation,./internal/wire,./internal/faas \
    -det ./internal/sim,./internal/netsim,./internal/workload,./internal/data,./internal/trace,./internal/fault,./internal/energy,./internal/node,./internal/task,./internal/placement,./internal/retry,./internal/core,./internal/scenario,./internal/metrics,./internal/faas,./internal/experiments \
    -allow scripts/apilint/allowlist.txt . benchmark

# The end-to-end gates are written down once, as Makefile targets (each
# target's comment says what it asserts): the benchmark module, chaos,
# speculation, overload, scenario, federation and trace smokes.
# None of them writes a tracked file.
for gate in bench-check chaos-smoke spec-smoke overload-smoke scenario-smoke federation-smoke trace-smoke; do
    echo "== $gate =="
    make --no-print-directory "$gate"
done

echo "check: all gates passed"
