#!/usr/bin/env bash
# Build the benchmark and the longnail CLI from source, then run one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload compile_cold --seed 1 --seconds 50 --trace 0
#   bash perfbench/run.sh smoke      # the benchmark's own smoke test
#
# The last line of standard output is the JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (no dune-project/lib here)" >&2
  exit 1
fi
dune build --root . --display quiet ./perfbench/main.exe ./perfbench/smoke.exe ./bin/longnail_cli.exe 1>&2
cli=./_build/default/bin/longnail_cli.exe
if [ "${1:-}" = smoke ]; then
  exec ./_build/default/perfbench/smoke.exe --cli "$cli"
fi
exec ./_build/default/perfbench/main.exe --cli "$cli" "$@"
