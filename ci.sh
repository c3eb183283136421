#!/bin/sh
# CI gate: the one sequence of checks; `make check` runs this script.
#
# Every test invocation carries an explicit -timeout so a hung solve (the
# exact failure mode the cancellation work guards against) fails the build
# with a goroutine dump instead of stalling CI at the default 10 minutes
# per package. The broad race pass runs -short — the TestStress suite is
# skipped there and run separately, twice, with its own budget.
set -eux
go build ./...
# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"
go vet ./...
go test -race -short -timeout 5m ./...
# Non-race pass: the race detector instruments allocations, so the
# allocation pins (//go:build !race, e.g. internal/core/alloc_test.go) only
# compile and run here.
go test -short -timeout 5m ./...
go test -race -run TestStress -count=2 -timeout 10m ./...
# Fuzz smoke: ten seconds per native fuzz target.
./scripts/fuzz.sh
# Benchmark smoke: run every internal/core benchmark and the root package's
# micro-benchmarks once, so they keep building and running (the timings are
# not checked).
go test -run '^$' -bench . -benchtime 1x -timeout 5m ./internal/core
go test -run '^$' -bench 'IndexBuild|ESEHits|MinCostIQ|MaxHitIQ|TopKEvaluate' -benchtime 1x -timeout 5m .
# Live durability gate: kill -9 a real iqserver mid-commit, restart over the
# same data dir, and require the acknowledged epoch and a bit-identical
# reference solve.
./scripts/crashcheck.sh
# Benchmark compile gate: perfbench/ is its own Go module, so the steps
# above never build it. Vet it and run its short tests so an engine API
# change cannot break the benchmark unnoticed.
(cd perfbench && go vet ./... && go test -short ./...)
