#!/bin/sh
# Fuzz smoke: ten seconds of coverage-guided inputs per native fuzz target,
# beyond the seed corpora (testdata/fuzz) that every test run replays. This
# is the one list of the repository's fuzz targets; `make fuzz` and ci.sh
# both run it. Run it from the repository root.
set -eux
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
go test -run '^$' -fuzz '^FuzzObjectsCSV$' -fuzztime 10s -timeout 5m .
go test -run '^$' -fuzz '^FuzzQueriesCSV$' -fuzztime 10s -timeout 5m .
go test -run '^$' -fuzz '^FuzzSelect$' -fuzztime 10s -timeout 5m ./internal/sqlmini
