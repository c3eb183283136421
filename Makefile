GO ?= go

.PHONY: check build test fuzz bench benchsmoke crashcheck perfbench

# check is the CI entry point. ci.sh holds its one sequence of steps (build,
# gofmt, vet, the race and non-race suites, the stress tests twice, the fuzz
# smoke, the benchmark smoke, the live crash drill and the perfbench
# compile gate), so environments without make run the same gate.
check:
	./ci.sh

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 5m ./...

# fuzz runs ten seconds of coverage-guided inputs per native fuzz target;
# scripts/fuzz.sh is the one list of them, shared with ci.sh.
fuzz:
	./scripts/fuzz.sh

# crashcheck is the live kill -9 drill: boot an iqserver over a data
# directory, murder it mid-commit while a sprayer is writing, restart over
# the same directory, and require the exact acknowledged epoch and a
# bit-identical reference solve (scripts/crashcheck.sh). The in-process
# crash-injection property test covers every internal boundary; this proves
# the deployed binary survives a real SIGKILL.
crashcheck:
	./scripts/crashcheck.sh

# perfbench compiles and vets the repository benchmark. perfbench/ is its
# own Go module, so the root build, vet and tests never see it; an engine
# API change could otherwise break the benchmark while CI stays green.
# -short skips its end-to-end smoke run.
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
