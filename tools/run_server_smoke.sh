#!/bin/sh
# End-to-end dwredd smoke (also the CI server-smoke job): boot the daemon on
# an ephemeral port, drive the full command surface through dwredctl
# --connect, hammer the warm query path with the pipelined load generator,
# and require the warehouse snapshot CRC to be byte-identical before and
# after the read-only load.
#
# usage: run_server_smoke.sh <dwredd> <dwredctl> <dwred_loadgen> <demo_dir>
set -eu

# Resolve to absolute paths: the drive script runs with the demo directory
# as its cwd (the CSVs are referenced relative).
abspath() { printf '%s/%s\n' "$(cd "$(dirname "$1")" && pwd)" "$(basename "$1")"; }
DWREDD="$(abspath "$1")"
DWREDCTL="$(abspath "$2")"
LOADGEN="$(abspath "$3")"
DEMO_DIR="$(cd "$4" && pwd)"

WORK="$(mktemp -d /tmp/dwred_server_smoke.XXXXXX)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Boot on an ephemeral port; the listener line is the parse contract. The
# output file exists before the launch: the forked child opens the redirect,
# maybe after the first poll below.
: > "$WORK/dwredd.out"
"$DWREDD" --port=0 > "$WORK/dwredd.out" 2> "$WORK/dwredd.err" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 300); do
  ADDR="$(sed -n 's/^dwredd listening on //p' "$WORK/dwredd.out")"
  [ -n "$ADDR" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || {
    echo "dwredd died during boot:"; cat "$WORK/dwredd.err"; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "dwredd never printed its listener line"; exit 1; }
echo "server at $ADDR"

# The whole mutating surface once: insert the paper's Table 2 clicks on top
# of the built-in example, install {a1, a2}, synchronize, then read back.
cat > "$WORK/drive.dwred" <<EOF
ping
load-facts $DEMO_DIR/clicks.csv
action a1: a[Time.month, URL.domain] s[URL.domain_grp = .com AND NOW - 12 months <= Time.month <= NOW - 6 months]
action a2: a[Time.quarter, URL.domain] s[URL.domain_grp = .com AND Time.quarter <= NOW - 4 quarters]
apply 2000/11/5
subcube-sync 2000/11/5
subcube-query 2000/11/5 Time.month, URL.domain
explain 2000/11/5 Time.month, URL.domain where URL.domain_grp = .com
cache
metrics
snapshot-crc
EOF
(cd "$DEMO_DIR" && "$DWREDCTL" --connect="$ADDR" "$WORK/drive.dwred") \
  > "$WORK/drive.out"
grep -q "cells" "$WORK/drive.out" || {
  echo "no query result in remote drive output:"; cat "$WORK/drive.out"
  exit 1; }

CRC_BEFORE="$(sed -n 's/^crc=\([0-9]*\) .*/\1/p' "$WORK/drive.out" | tail -1)"
[ -n "$CRC_BEFORE" ] || { echo "no snapshot-crc in output"; exit 1; }
echo "warehouse crc before load: $CRC_BEFORE"

# Read-only load at fixed concurrency; --expect-crc re-fetches the CRC after
# the run, so a single diverged byte fails the whole job.
"$LOADGEN" --connect="$ADDR" --connections=4 --requests=500 --pipeline=16 \
  --pred='URL.domain_grp = .com' --gran='Time.month, URL.domain' \
  --now-day=11266 --expect-crc="$CRC_BEFORE"

# Clean shutdown completes the session lifecycle; the daemon must exit 0.
printf 'shutdown\n' | "$DWREDCTL" --connect="$ADDR" -
wait "$SERVER_PID"
grep -q "shut down cleanly" "$WORK/dwredd.out" || {
  echo "dwredd did not shut down cleanly:"; cat "$WORK/dwredd.out"; exit 1; }
echo "server smoke OK"
