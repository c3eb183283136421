#!/bin/sh
# Live workload-analytics smoke test: boot a real iqserver, drive a skewed
# solver workload plus mutations through the HTTP API with iqtool, and
# validate the whole analytics surface — /v1/stats/workload reports live
# per-region load and /debug/workload renders. Unit tests cover the
# aggregator and handlers in isolation; only a live process proves the
# engine hooks and the HTTP layer compose end to end.
set -eu

ADDR=127.0.0.1:19277
BIN=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/iqserver" ./cmd/iqserver
go build -o "$BIN/iqtool" ./cmd/iqtool

"$BIN/iqserver" -addr "$ADDR" -log-level warn &
SERVER_PID=$!

# iqtool retries until the server is up (bounded by -scrape-timeout).
"$BIN/iqtool" -analyze-server "http://$ADDR" -scrape-timeout 15s
