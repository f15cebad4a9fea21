#!/usr/bin/env bash
# Builds perf_suite (release, offline) and runs it from the root of the
# checkout.
#
#   perf_suite/run.sh [--seed S] [--workload W] [--quick]
#       the reference protocol: every metric printed by name with its
#       unit, reports and walk traces under perf_suite/out/.
#       --quick is one measured pass, for smoke use; never for
#       reported numbers.
#   perf_suite/run.sh walk|diff|selfcheck ...
#       the other subcommands, passed through.
#   perf_suite/run.sh --workload W --seed S --seconds N --trace 0|1
#       the benchmark driver's contract: one JSON object as the last
#       line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

target="${CARGO_TARGET_DIR:-$here/target}"
# The build's chatter goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

mode=run
for arg in "$@"; do
  case "$arg" in
    run | walk | diff | selfcheck | --seconds) mode=given ;;
  esac
done
if [ "$mode" = run ]; then
  set -- run "$@"
fi
exec "$target/release/perf_suite" "$@"
