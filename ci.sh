#!/bin/sh
# CI gate: identical to `make check`, for environments without make.
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
# Live observability gate: boot a real iqserver and validate its /metrics
# exposition with iqtool's built-in parser (fails on unparseable output or
# a registry with no engine series).
./scripts/metricscheck.sh
# Live tracing gate: boot a real iqserver, capture a traced solve through
# the flight recorder, and validate the downloaded trace_event JSON.
./scripts/tracecheck.sh
# Live durability gate: kill -9 a real iqserver mid-commit, restart over the
# same data dir, and require the acknowledged epoch and a bit-identical
# reference solve.
./scripts/crashcheck.sh
# Live SLO/telemetry gate: boot a real iqserver with an impossible latency
# target, drive solves until the burn-rate alert fires (on the stats
# surface and the log stream), then kill -9 and restart to prove the
# telemetry history journal survived.
./scripts/healthcheck.sh
# Benchmark compile gate: perfbench/ is its own Go module, so the steps
# above never build it. Vet it and run its short tests so an engine API
# change cannot break the benchmark unnoticed.
(cd perfbench && go vet ./... && go test -short ./...)
