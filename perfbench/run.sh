#!/usr/bin/env bash
# Build the benchmark from source (release profile), then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 127
fi
"${dune[@]}" build --root . --profile release ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
