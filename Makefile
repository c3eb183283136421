GO ?= go

.PHONY: check build fmt vet test short race stress fuzz bench benchsmoke metricscheck tracecheck crashcheck perfbench

# check is the CI entry point: build everything, check formatting, vet, run
# the suite under the race detector (-short: the stress tests are excluded
# there) and once more without it (the allocation pins are //go:build
# !race), then re-run the concurrency stress tests twice to shake out
# scheduling-dependent interleavings, fuzz each native fuzz target briefly,
# run the core benchmarks and the root micro-benchmarks once so they cannot
# rot, and finally drive live servers through the script gates.
# Every test run carries an explicit -timeout so a hung solve fails fast
# with a goroutine dump instead of stalling CI at the per-package default.
check: build fmt vet race short stress fuzz benchsmoke metricscheck tracecheck crashcheck perfbench

build:
	$(GO) build ./...

# fmt fails when gofmt would rewrite any file.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 5m ./...

race:
	$(GO) test -race -short -timeout 5m ./...

# short is the non-race pass: the race detector instruments allocations, so
# the allocation pins only build without it.
short:
	$(GO) test -short -timeout 5m ./...

stress:
	$(GO) test -race -run TestStress -count=2 -timeout 10m ./...

# fuzz runs ten seconds of coverage-guided inputs per native fuzz target;
# every test run already replays their seed corpora (testdata/fuzz).
# FuzzLoad and FuzzLoadFields skip minimising new inputs: shrinking a gob
# snapshot stalls the workers, and with it the step ran about 4k execs in
# 10 s, not 100k. FuzzReadSegment skips it too: each input is a file on
# disk, and with minimising the workers stalled at 0 execs/s after about
# 10 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzHitBound$$' -fuzztime 10s -timeout 5m ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSkybandUpdate$$' -fuzztime 10s -timeout 5m ./internal/subdomain
	$(GO) test -run '^$$' -fuzz '^FuzzHandlers$$' -fuzztime 10s -timeout 5m ./cmd/iqserver
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -timeout 5m ./internal/expr
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m .
	$(GO) test -run '^$$' -fuzz '^FuzzLoadFields$$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m .
	$(GO) test -run '^$$' -fuzz '^FuzzReadSegment$$' -fuzztime 10s -fuzzminimizetime 0 -timeout 5m ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzObjectsCSV$$' -fuzztime 10s -timeout 5m .
	$(GO) test -run '^$$' -fuzz '^FuzzQueriesCSV$$' -fuzztime 10s -timeout 5m .
	$(GO) test -run '^$$' -fuzz '^FuzzSelect$$' -fuzztime 10s -timeout 5m ./internal/sqlmini

# metricscheck boots a real iqserver and validates its /metrics output with
# iqtool -scrape-metrics (a built-in Prometheus text parser — no curl or
# promtool dependency). Catches exposition bugs unit tests can't: series
# registered at init across all packages render together only in a live
# process.
metricscheck:
	./scripts/metricscheck.sh

# tracecheck boots a real iqserver, captures a traced solve through the
# flight recorder (iqtool -trace-server), and validates the downloaded
# trace_event JSON: parseable, laminar per track, and nested at least
# solve → round → probe deep.
tracecheck:
	./scripts/tracecheck.sh

# crashcheck is the live kill -9 drill: boot an iqserver over a data
# directory, murder it mid-commit while a sprayer is writing, restart over
# the same directory, and require the exact acknowledged epoch and a
# bit-identical reference solve (scripts/crashcheck.sh). The in-process
# crash-injection property test covers every internal boundary; this proves
# the deployed binary survives a real SIGKILL.
crashcheck:
	./scripts/crashcheck.sh

# perfbench compiles and vets the repository benchmark. perfbench/ is its
# own Go module, so the root build, vet and test targets never see it; an
# engine API change could otherwise break the benchmark while CI stays
# green. -short skips its end-to-end smoke run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# bench runs the root package's figure benchmarks and micro-benchmarks and
# every internal/core benchmark.
bench:
	$(GO) test -bench=. -benchmem . ./internal/core/

# benchsmoke runs every internal/core benchmark and the root package's
# micro-benchmarks for one iteration: it checks that they build and run, not
# how fast.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 5m ./internal/core
	$(GO) test -run '^$$' -bench 'IndexBuild|ESEHits|MinCostIQ|MaxHitIQ|TopKEvaluate' -benchtime 1x -timeout 5m .
