#!/bin/sh
# CI gate: the on-disk artifact store works across real processes.
#
# Runs the same compile in two separate CLI processes against one
# --store directory: the first must populate the store (zero hits), the
# second must be served warm from disk (nonzero hits, zero misses) with
# byte-identical SystemVerilog and YAML. Then an artifact is corrupted
# in place and the compile re-run: the store must heal (corrupt entry
# evicted, target recompiled) with identical bytes and exit 0. The same
# source copied under another file name must then be served warm too (a
# unit is keyed by its source bytes), and a one-literal edit must miss.
#
# Finally a daemon smoke leg: start `longnail serve` against the same
# store, drive a batched compile and a malformed request through
# `longnail client`, and shut it down cleanly.
#
# Usage: scripts/check_disk_cache.sh   (from the repository root)
set -eu

CLI=_build/default/bin/longnail_cli.exe
TMP="$(mktemp -d)"
STORE="$TMP/store"
SOCK="$TMP/longnail.sock"
trap 'rm -rf "$TMP"' EXIT

dune build bin/longnail_cli.exe

"$CLI" bundled -n dotprod > "$TMP/dotprod.core_desc"

compile() {
    out="$1"
    "$CLI" compile -c vexriscv -t X_DOTP "$TMP/dotprod.core_desc" \
        -o "$out" --store "$STORE"
}

# ---- cold process populates, warm process reloads ----

cold_note="$(compile "$TMP/cold")"
echo "$cold_note"
echo "$cold_note" | grep -q 'disk-store: hits=0 misses=1 stores=1' || {
    echo "error: cold process did not populate the store" >&2; exit 1; }

warm_note="$(compile "$TMP/warm")"
echo "$warm_note"
echo "$warm_note" | grep -q 'disk-store: hits=1 misses=0 stores=0' || {
    echo "error: warm process was not served from disk" >&2; exit 1; }

if ! diff -r "$TMP/cold" "$TMP/warm"; then
    echo "error: disk-warm compile changed the artifact bytes" >&2
    exit 1
fi
echo "disk-cache: cross-process warm compile byte-identical"

# ---- corrupt an artifact in place: the store must heal ----

art="$(find "$STORE" -name '*.art' | head -n 1)"
[ -n "$art" ] || { echo "error: no artifact file found in $STORE" >&2; exit 1; }
size="$(wc -c < "$art")"
truncate -s $((size / 2)) "$art"

heal_note="$(compile "$TMP/healed")"
echo "$heal_note"
echo "$heal_note" | grep -q 'corrupt=1' || {
    echo "error: corrupted entry was not detected" >&2; exit 1; }
echo "$heal_note" | grep -q 'stores=1' || {
    echo "error: corrupted entry was not recomputed and re-stored" >&2; exit 1; }
if ! diff -r "$TMP/cold" "$TMP/healed"; then
    echo "error: recovery from corruption changed the artifact bytes" >&2
    exit 1
fi
echo "disk-cache: corrupted entry evicted and healed"

# ---- a unit is keyed by its source bytes, not its file name ----

cp "$TMP/dotprod.core_desc" "$TMP/renamed.core_desc"
renamed_note="$("$CLI" compile -c vexriscv -t X_DOTP "$TMP/renamed.core_desc" \
    -o "$TMP/renamed" --store "$STORE")"
echo "$renamed_note"
echo "$renamed_note" | grep -q 'disk-store: hits=1 misses=0 stores=0' || {
    echo "error: the same source under another file name was not served from disk" >&2
    exit 1; }
if ! diff -r "$TMP/cold" "$TMP/renamed"; then
    echo "error: the renamed source changed the artifact bytes" >&2
    exit 1
fi
echo "disk-cache: same source under another name served warm, byte-identical"

# ---- a one-literal edit is a new unit and misses ----

sed 's/signed<32> res = 0;/signed<32> res = 1;/' "$TMP/dotprod.core_desc" > "$TMP/edited.core_desc"
if cmp -s "$TMP/dotprod.core_desc" "$TMP/edited.core_desc"; then
    echo "error: the literal edit did not apply" >&2; exit 1
fi
edited_note="$("$CLI" compile -c vexriscv -t X_DOTP "$TMP/edited.core_desc" \
    -o "$TMP/edited" --store "$STORE")"
echo "$edited_note"
echo "$edited_note" | grep -q 'misses=1 stores=1' || {
    echo "error: an edited source was not compiled and stored afresh" >&2; exit 1; }
echo "disk-cache: one-literal edit misses and stores"

# ---- daemon smoke: serve + batched client compile + clean shutdown ----

"$CLI" serve --socket "$SOCK" --store "$STORE" 2> "$TMP/serve.log" &
SERVE_PID=$!

"$CLI" client --socket "$SOCK" --retries 50 --ping > /dev/null

resp="$("$CLI" client --socket "$SOCK" \
    '{"id":1,"op":"compile","isax":"dotprod","cores":["vexriscv","picorv32"]}')"
targets="$(echo "$resp" | grep -c '"event":"target"')"
[ "$targets" -eq 2 ] || {
    echo "error: expected 2 target events, got $targets" >&2; exit 1; }
echo "$resp" | grep -q '"event":"done","ok":true' || {
    echo "error: batched compile did not finish ok" >&2; exit 1; }

# a malformed request must fail the client (exit 1) but not the daemon
if "$CLI" client --socket "$SOCK" '{"op":' > "$TMP/bad.out" 2>&1; then
    echo "error: malformed request unexpectedly reported ok" >&2
    exit 1
fi
grep -q 'E0910' "$TMP/bad.out" || {
    echo "error: malformed request did not yield an E0910 diagnostic" >&2; exit 1; }
"$CLI" client --socket "$SOCK" --ping > /dev/null || {
    echo "error: daemon died after a malformed request" >&2; exit 1; }

"$CLI" client --socket "$SOCK" --shutdown > /dev/null
wait "$SERVE_PID" || {
    echo "error: serve daemon exited nonzero" >&2; cat "$TMP/serve.log" >&2; exit 1; }
[ ! -e "$SOCK" ] || { echo "error: socket file left behind" >&2; exit 1; }
echo "disk-cache: serve daemon round trip + clean shutdown"

echo "disk-cache gate passed"
