# Canonical targets; `make check` is the tier-1 gate CI and reviewers run.

.PHONY: check build test bench bench-check chaos-smoke spec-smoke overload-smoke scenario-smoke trace-smoke federation-smoke stress

check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem .

# The benchmark/ module (BENCHMARK.json's entry point) is its own Go
# module, so the root `go build ./...`, vet and test never reach it and
# an internal/* API change can break it unnoticed: format, vet and test
# it from inside (also part of `make check`).
bench-check:
	cd benchmark && test -z "$$(gofmt -l .)" && go vet ./... && go test -race ./...

# End-to-end reliability smoke: chaos injection + endpoint kill, the one
# chaos injector's own tests (draw rule, phases, Cycle's flips, the
# grammar), the check that a scenario's chaos draws the same on the sim
# and live backends, and the circuit breaker's tests (its reference
# model, and the one-probe rule under late outcomes), all under the race
# detector (also part of `make check`).
chaos-smoke:
	go test -race -count=1 -run 'TestE2EChaosNoRequestLost|TestDeadlineParitySimAndLive' .
	go test -race -count=1 ./internal/fault
	go test -race -count=1 -run 'TestChaosSameDrawsOnBothBackends' ./internal/scenario
	go test -race -count=1 -run 'TestBreaker' ./internal/retry

# Speculation smoke: engine speculation properties plus the hedged
# zero-loss end-to-end gate under the race detector (also in `make check`).
spec-smoke:
	go test -race -count=1 -run 'TestSpeculation' ./internal/core
	go test -race -count=1 -run 'TestE2EChaosHedgedNoRequestLost' .

# Overload smoke under the race detector: a 10x flash crowd against an
# admission-controlled endpoint must lose no accepted request, shed
# fail-fast with Retry-After, and keep high-priority p99 bounded; under
# a sustained crowd admission-on goodput must be at least 2x
# admission-off; the admission gate's core must match its reference
# model over seeded random sequences; and the simulator, which drives
# the same core, must queue, shed lowest class first and release on
# completion or loss (also part of `make check`).
overload-smoke:
	go test -race -count=1 -run 'TestE2EOverload|TestE2EAdmissionGoodput' .
	go test -race -count=1 -run 'TestGateMatchesModel' ./internal/faas
	go test -race -count=1 -run 'TestAdmission|TestSimAdmissionSheds' ./internal/core ./internal/scenario

# Scenario smoke: validate the shipped scenario library, then run one
# scenario on both backends — simulator and live in-process fleet — under
# the race detector (also part of `make check`).
scenario-smoke:
	go run ./cmd/continuum-sim scenario validate examples/scenarios/*.json
	go test -race -count=1 -run 'TestScenarioBothBackends' .

# Distributed-tracing smoke: a hedged request across a real two-daemon
# federation must assemble into one cross-daemon trace via
# `continuumctl trace` — client root, both arms, queue, and exec spans —
# and export as a Chrome trace file (also part of `make check`).
trace-smoke:
	./scripts/trace_smoke.sh

# Federation smoke: the federated control-plane gate under the race
# detector — a continuum-router fronting three daemons survives one hard
# kill and one graceful drain with zero accepted requests lost, the
# endpoints op tracks membership on the heartbeat schedule, a
# router-fronted live scenario replays join/leave churn losslessly, and
# 20 runs of eight callers through a hedging router in front of a
# chaotic daemon get every echo back byte for byte while the router
# recycles the buffers it relays (also part of `make check`).
federation-smoke:
	go test -race -count=1 -run 'TestE2EFederationChurnNoRequestLost' .
	go test -race -count=1 -run 'TestLiveRouterChurnZeroLost' ./internal/scenario
	go test -race -count=20 -run 'TestRelayEchoesExactUnderHedgingAndChaos' ./internal/federation

# Scale harness: generate 1000-, 10k-, 100k- and 300k-node scenarios,
# validate them, and run each through the simulator inside a wall-clock
# budget; each run prints its peak RSS. On a 2-vCPU Xeon (Go 1.24.0,
# GOMAXPROCS 2), in runs alternated with the code before greedy-latency
# placement scored from its index and stream jobs became one record each,
# they take 0.03–0.04 s (15–16 MB), 0.11–0.16 s (50 MB), 0.99–1.49 s
# (0.45 GB) and 3.6–4.1 s (1.36–1.39 GB); the code before took
# 0.04–0.06 s (16–17 MB), 0.13–0.15 s (51 MB), 0.98–1.51 s (0.45 GB) and
# 3.5–5.1 s (1.36–1.38 GB). From 100k nodes up a run is mostly building
# the network and starting shortest-path searches (an O(V) hop slice
# each), which the per-task savings do not reach. The 20 s budgets are
# the scale gate.
stress:
	go run ./cmd/continuum-sim scenario stress -nodes 1000 -seed 42 -budget 60s
	go run ./cmd/continuum-sim scenario stress -nodes 10000 -seed 42 -budget 20s
	go run ./cmd/continuum-sim scenario stress -nodes 100000 -seed 42 -budget 20s
	go run ./cmd/continuum-sim scenario stress -nodes 300000 -seed 42 -budget 20s
