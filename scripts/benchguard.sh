#!/bin/sh
# benchguard.sh — run the planner guard benchmark and compare against the
# committed baseline (BENCH_planner.json at the repo root). Extra
# arguments pass through to cmd/benchguard, e.g.:
#
#   scripts/benchguard.sh                       # compare (bootstraps if missing)
#   scripts/benchguard.sh -update               # accept current performance
#   scripts/benchguard.sh -max-slowdown 1       # loosen for a noisy machine
#   scripts/benchguard.sh -min-prune-ratio 0.2  # require warm bound pruning
#   scripts/benchguard.sh -max-fleet-excess 0.5 # loosen the fleet makespan rule
#
# BENCHTIME overrides the iteration count (default 30x: fixed iterations
# rather than a time budget, so states/op is exactly reproducible; the
# committed baseline is sampled at 30x, so compare runs should match it —
# the large relational fixture needs the extra iterations to average out
# single-run noise against its ±10–15% invariants). MICROBENCHTIME does the
# same for the microsecond-scale evaluator benchmarks (default 3000x).
set -eu
cd "$(dirname "$0")/.."

# The ops of BenchmarkCheckDemandDelta, BenchmarkCheckPortReject and
# BenchmarkCheckFarJump take microseconds to a few hundred: thirty of them are
# one scheduler hiccup wide (a 30x sample once recorded 21 µs for a 5 µs op),
# so they run separately at MICROBENCHTIME (default 3000x) and join the same
# guard run.
{
	go test -run '^$' -bench 'BenchmarkPlannerGuard|BenchmarkCheckSuiteE|BenchmarkFleetGuard' -benchtime "${BENCHTIME:-30x}" .
	go test -run '^$' -bench 'BenchmarkCheckDemandDelta|BenchmarkCheckPortReject|BenchmarkCheckFarJump' -benchtime "${MICROBENCHTIME:-3000x}" .
} | go run ./cmd/benchguard -baseline BENCH_planner.json "$@"
