#!/bin/sh
# Benchmark gates. The first two are deterministic (allocation and
# cache-miss counts are exact); the WAL gate is a wall-clock ratio but a
# generous one (110% with best-of-three retries), because it guards a
# structural property — group commit must not serialise fsyncs into the
# commit path — rather than a microbenchmark number.
#
# 1. Solve-cache A/B (PR 5): warm-cache solves must allocate less than
#    uncached ones. Full-scale report: BENCH_PR5.json
#    (regenerate with: go run ./cmd/iqbench -cache-json BENCH_PR5.json).
# 2. Write-path invalidation (PR 6): after mutations whose dirty set does not
#    overlap the solve target, the repeat solve must take zero threshold
#    misses with dirty-set invalidation on, and must cold-start with it off.
#    Full-scale report: BENCH_PR6.json
#    (regenerate with: go run ./cmd/iqbench -write-json BENCH_PR6.json).
# 3. Durability A/B (PR 7): commits under -fsync interval (group commit)
#    must stay within 10% of the in-memory commit path.
#    Full-scale report: BENCH_PR7.json
#    (regenerate with: go run ./cmd/iqbench -wal-json BENCH_PR7.json).
# 4. Workload-analytics A/B (PR 8): per-region attribution must add at most
#    2% to the solvers (min-of-N attempts; noise can only inflate the
#    estimate, never deflate it). Full-scale report: BENCH_PR8.json
#    (regenerate with: go run ./cmd/iqbench -analytics-json BENCH_PR8.json).
# 5. Health-subsystem A/B (PR 9): a live history sampler + SLO evaluator
#    (ticking at an aggressive 10ms) must add at most 2% to the solvers —
#    the sampler runs entirely off the hot path. Full-scale report:
#    BENCH_PR9.json
#    (regenerate with: go run ./cmd/iqbench -health-json BENCH_PR9.json).
# 6. Cross-PR trend: the newest BENCH_PR*.json ledger must stay within 10%
#    of the best known value for every metric it shares lineage with —
#    regressions against history fail even when each individual PR's own
#    gate passed.
set -eu

go run ./cmd/iqbench -cache-check
go run ./cmd/iqbench -write-check
go run ./cmd/iqbench -wal-check
go run ./cmd/iqbench -analytics-check
go run ./cmd/iqbench -health-check
go run ./cmd/iqbench -trend
