#!/usr/bin/env bash
# Tier-1 verification gate: formatting, vet, lint, build, the full test
# suite (including the golden states-expanded table in internal/opt),
# short fuzzes of the strategy and DAG readers, the race suites, the scheduler
# scale and allocation smoke, the exhaustive small-DAG sweep of the
# exact search and the server end-to-end smoke. Run
# before every commit; CI runs exactly this.
# Timing lives in the repository benchmark, bench/run.sh.
#
#   scripts/verify.sh           # full suite (~7 min on 2 vCPUs; the race suites and the opt sweep dominate)
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

echo "== fuzz: strategy JSON reader =="
# ReadJSON parses strategy files from outside the program (mppsched
# -load). go test above replays the seed corpus; this adds a short
# coverage-guided search for inputs that break its decode/re-encode
# fixed point or make Replay panic.
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 10s ./internal/pebble/

echo "== fuzz: DAG JSON reader =="
# dag.FromJSON decodes the job API's dag_json from outside the program:
# a short coverage-guided search for inputs that make it panic, or that
# it accepts but cannot round-trip to the same node count and edges.
go test -run '^$' -fuzz '^FuzzFromJSON$' -fuzztime 10s ./internal/dag/

echo "== bench module =="
# bench/ is its own Go module (repro/bench, replace repro => ../), so the
# root build, vet and test above skip it: build, vet and test it here,
# so that a renamed or removed entry point cannot break the benchmark
# unnoticed.
# -o /dev/null keeps the single main package from leaving a binary.
(cd bench && go build -o /dev/null ./... && go vet ./... && go test ./...)

echo "== go test -race =="
# The sharded exact solver (ModeAsync, opt.Config.Workers > 1) routes
# states across shard goroutines through mutex-guarded mailboxes, with
# atomic quiescence counters and an atomic incumbent/budget — so
# internal/opt runs its FULL race suite (the sharded-mode properties
# TestAsyncMatchesDeterministicZoo, TestAsyncWitnessReplays,
# TestAsyncPartialBudgetBracket, TestAsyncCancel and
# TestAsyncStopLosesNoCandidate, and the deterministic-mode contract
# TestExactWorkersMatchSequentialZoo, included). exp only fans out
# coarse-grained experiment goroutines and stays -short.
go test -race ./internal/opt/
# A race in the termination protocol shows only on some schedules, so
# the sharded-mode tests run five more times (-count=5 also bypasses the
# test cache; ~50 s on 2 vCPUs).
go test -race -run '^TestAsync' -count=5 ./internal/opt/
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

echo "== opt sweep (every DAG up to 5 nodes, ZeroIO up to 6) =="
# The exhaustive gate on the exact search: every DAG up to five nodes
# against an independent full-rule reference (the plain suite above
# stops at four), the per-edge heuristic checks on the four-node state
# graphs at k <= 2, and the zero-I/O decider on every DAG up to six
# nodes at every r. About two minutes of wall time, gated behind
# OPT_SWEEP and run here, outside -race.
OPT_SWEEP=1 go test -run 'TestExactMatchesReference|TestHeuristicFullGraph|TestZeroIOMatchesReference' -count=1 ./internal/opt/

echo "== server e2e smoke =="
# Exec-level proof of the solver-as-a-service contract: build the real
# mppserver and mpp binaries, start the server on an ephemeral port,
# and drive submit → poll → fetch over actual HTTP (byte-identical
# completed results, typed deadline/budget partials, queueing beyond
# the worker bound, live /metrics). Seconds of wall time.
go build ./cmd/mppserver ./cmd/mpp
go test -run TestServerEndToEnd -count=1 ./e2e/

echo "verify OK"
