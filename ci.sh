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
# Fuzz smoke: ten seconds of coverage-guided inputs per native fuzz target,
# beyond the seed corpora every test run replays.
go test -run '^$' -fuzz '^FuzzHitBound$' -fuzztime 10s -timeout 5m ./internal/core
go test -run '^$' -fuzz '^FuzzSkybandUpdate$' -fuzztime 10s -timeout 5m ./internal/subdomain
go test -run '^$' -fuzz '^FuzzHandlers$' -fuzztime 10s -timeout 5m ./cmd/iqserver
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -timeout 5m ./internal/expr
# FuzzLoad and FuzzLoadFields skip minimising new inputs: shrinking a gob
# snapshot stalls the workers, and with it the step ran about 4k execs in
# 10 s, not 100k.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m .
go test -run '^$' -fuzz '^FuzzLoadFields$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m .
# FuzzReadSegment skips minimising too: each input is a file on disk, and
# with minimising the workers stalled at 0 execs/s after about 10 s.
go test -run '^$' -fuzz '^FuzzReadSegment$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m ./internal/wal
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
# Benchmark compile gate: perfbench/ is its own Go module, so the steps
# above never build it. Vet it and run its short tests so an engine API
# change cannot break the benchmark unnoticed.
(cd perfbench && go vet ./... && go test -short ./...)
