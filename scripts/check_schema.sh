#!/bin/sh
# CI gate: the profiling metric-name schema is a checked-in contract.
#
# Compiles every bundled ISAX on every registered core with
# --profile=schema and diffs the emitted metric names against
# bench/PIPELINE_SCHEMA.txt. The CLI validates each span tree before
# printing it (no empty or non-finite metric), so a target whose profile
# is malformed fails here too. A metric or stage rename must come with
# an update to that file; regenerate it with
#   longnail compile -c vexriscv -t X_DOTP -o OUT dotprod.core_desc \
#       --profile=schema > bench/PIPELINE_SCHEMA.txt
#
# Usage: scripts/check_schema.sh   (from the repository root)
set -eu

CLI=_build/default/bin/longnail_cli.exe
SCHEMA=bench/PIPELINE_SCHEMA.txt
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

dune build bin/longnail_cli.exe

ISAXES="$("$CLI" bundled | awk '{print $1}')"
CORES="$("$CLI" cores --names)"

grid=0
for isax in $ISAXES; do
    src="$TMP/$isax.core_desc"
    "$CLI" bundled --name "$isax" > "$src"
    # the compile target is the single InstructionSet (or composing Core)
    # the bundled description defines
    target="$(sed -n -e 's/^InstructionSet \([A-Za-z0-9_]*\).*/\1/p' \
                     -e 's/^Core \([A-Za-z0-9_]*\).*/\1/p' "$src" | head -n 1)"
    if [ -z "$target" ]; then
        echo "error: cannot determine compile target of bundled ISAX '$isax'" >&2
        exit 1
    fi
    for core in $CORES; do
        if ! "$CLI" compile -c "$core" -t "$target" -o "$TMP/out" --profile=schema \
                "$src" > "$TMP/schema.txt" 2> "$TMP/err.log"; then
            cat "$TMP/err.log" >&2
            echo "error: $isax on $core failed to compile with --profile=schema" >&2
            exit 1
        fi
        if ! diff -u "$SCHEMA" "$TMP/schema.txt"; then
            echo "error: profiling schema of $isax on $core diverges from $SCHEMA" >&2
            echo "       (if the rename is deliberate, update the checked-in file)" >&2
            exit 1
        fi
        grid=$((grid + 1))
    done
done
echo "profiling schema matches $SCHEMA for all $grid ISAX x core targets"
