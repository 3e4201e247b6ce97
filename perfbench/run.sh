#!/usr/bin/env bash
# Build the benchmark from source (into $CARGO_TARGET_DIR, default
# .bench_build) and run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload iot_fig7 --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout is the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
dune build --root . --build-dir "$build" --display quiet ./perfbench/perfbench.exe >&2
export PERFBENCH_OUT="$build/perfbench"
mkdir -p "$PERFBENCH_OUT"
# Runtime_events (GC pause accounting in traced runs) keeps its ring
# file here, not in the checkout root; it is removed at exit.
export OCAML_RUNTIME_EVENTS_DIR="$PERFBENCH_OUT"
exec "$build/default/perfbench/perfbench.exe" "$@"
