#!/usr/bin/env bash
# Tier-1 verification gate: formatting, vet, lint, build, the full test
# suite (including the golden states-expanded table in internal/opt),
# the race suites, the scheduler scale and allocation smoke and the
# server end-to-end smoke. Run before every commit; CI runs exactly this.
# Timing lives in the repository benchmark, bench/run.sh.
#
#   scripts/verify.sh           # full suite (~2 min; hardness q=4 dominates)
#   SHORT=1 scripts/verify.sh   # -short: skips the slow q=4 hardness search
set -euo pipefail
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

echo "== mpplint =="
# Project-specific analyzers (internal/lint): ctx propagation, panic
# policy, errors.Is on sentinels, Status/Verdict consultation, the
# //mpp:hotpath no-allocation rule, plus the whole-program concurrency
# and determinism suite (atomicfield, lockguard, poolcheck,
# goroutinecheck, detcheck). Exits nonzero on any finding.
go run ./cmd/mpplint ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ${SHORT:+-short} ./...

echo "== bench module =="
# bench/ is its own Go module (repro/bench, replace repro => ../), so the
# root build and test above skip it: build and test it here, so that a
# renamed or removed entry point cannot break the benchmark unnoticed.
# -o /dev/null keeps the single main package from leaving a binary.
(cd bench && go build -o /dev/null ./... && go test ./...)

echo "== go test -race =="
# The sharded exact solver (opt.Config.Workers > 1) routes states across
# shard goroutines over channels with an atomic incumbent/budget — so
# internal/opt runs its FULL race suite (the determinism sweep over
# Workers ∈ {1,2,4,7} AND the async-engine equivalence properties —
# TestAsyncMatchesDeterministicZoo, TestAsyncWitnessReplays,
# TestAsyncPartialBudgetBracket, TestAsyncCancel — included; ~2.5 min
# under -race). exp only fans out coarse-grained experiment goroutines
# and stays -short.
go test -race ./internal/opt/
# The solve cache is a shared mutex-guarded LRU hit by concurrent
# solvers (and its fingerprint property tests are zoo-wide), so it runs
# its full suite under -race too.
go test -race ./internal/cache/
# The state tables back every shard of the parallel engines; their
# suite (including the open-addressing growth and shard-routing
# properties) runs fully under -race as well.
go test -race ./internal/hashtab/
# The partitioned scheduler simulates its per-processor partitions on a
# goroutine pool and must stay byte-identical to the sequential oracle
# at every worker count, so internal/sched runs its FULL suite —
# including the 3000-case engine/oracle equivalence sweep — under -race.
go test -race ./internal/sched/
go test -race -short ./internal/exp/
# The job server is the concurrency hot spot by construction: a worker
# pool draining a queue, per-job cancel functions, a shared metrics
# mutex and the solve cache hit from every worker — its full suite
# (cancel-mid-solve and flood tests included) runs under -race.
go test -race ./internal/server/

echo "== sched smoke (10^5-node instances) =="
# The scale gate for the CSR-native engines: schedule 10⁵-node (and one
# 10⁶-node) DAGs, replay-validate, and check cost against the certified
# lower bound. On the 10⁵-node DAGs it also audits allocs/op against
# pinned counts (1.3× ceiling), which is why it runs here, outside
# -race. Seconds of wall time, gated behind SCHED_SMOKE so the plain
# test suite stays fast.
SCHED_SMOKE=1 go test -run TestSchedSmoke -count=1 ./internal/sched/

echo "== server e2e smoke =="
# Exec-level proof of the solver-as-a-service contract: build the real
# mppserver and mpp binaries, start the server on an ephemeral port,
# and drive submit → poll → fetch over actual HTTP (byte-identical
# completed results, typed deadline/budget partials, queueing beyond
# the worker bound, live /metrics). Seconds of wall time.
go build ./cmd/mppserver ./cmd/mpp
go test -run TestServerEndToEnd -count=1 ./e2e/

echo "verify OK"
