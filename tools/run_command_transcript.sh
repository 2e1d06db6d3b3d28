#!/bin/sh
# One transcript, two transports (docs/SERVER.md): the shared commands must
# print the same bytes whether dwredctl runs them in process or ships them
# to a dwredd with --connect. Both sides start from the same warehouse:
#
#   1. a local script builds the paper's example warehouse from the demo
#      CSVs, installs {a1, a2} and saves a snapshot;
#   2. dwredd boots from that snapshot (its facts land in the bottom subcube);
#   3. the local shell reaches the same state in process with load-snapshot,
#      subcube-init and subcube-load of the same CSV.
#
# Then one script of shared commands runs both ways, and the two stdouts
# must be byte-identical. Last, a month where a day is due must fail with
# exit 1 both ways.
#
# usage: run_command_transcript.sh <dwredd> <dwredctl> <demo_dir>
set -eu

abspath() { printf '%s/%s\n' "$(cd "$(dirname "$1")" && pwd)" "$(basename "$1")"; }
DWREDD="$(abspath "$1")"
DWREDCTL="$(abspath "$2")"
DEMO_DIR="$(cd "$3" && pwd)"

WORK="$(mktemp -d /tmp/dwred_transcript.XXXXXX)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

A1='a1: a[Time.month, URL.domain] s[URL.domain_grp = .com AND NOW - 12 months <= Time.month <= NOW - 6 months]'
A2='a2: a[Time.quarter, URL.domain] s[URL.domain_grp = .com AND Time.quarter <= NOW - 4 quarters]'

cat > "$WORK/build.dwred" <<EOF
fact-type Click
time-dimension Time
load-dimension URL $DEMO_DIR/urls.csv
measures Number_of:sum,Dwell_time:sum,Delivery_time:sum,Datasize:sum
init
load-facts $DEMO_DIR/clicks.csv
action $A1
action $A2
apply
save-snapshot $WORK/warehouse.dwsnap
EOF
"$DWREDCTL" "$WORK/build.dwred" > "$WORK/build.out"

# The shared script: every line is a shared command.
cat > "$WORK/shared.dwred" <<EOF
echo ---- shared ----
ping
snapshot-crc
subcube-query 2000/11/5 Time.month, URL.domain
subcube-sync 2000/11/5
subcube-query 2000/11/5 Time.month, URL.domain
subcube-query 2000/11/5 Time.month, URL.domain where URL.domain_grp = .com
subcube-query 2000/11/5
load-facts $DEMO_DIR/clicks.csv
subcube-query 2000/11/5 Time.quarter, URL.domain_grp
action $A2
apply 2001/6/5
subcube-sync 2001/6/5
subcube-query 2001/6/5 Time.year, URL.domain where Time.year <= 2000
cache
cache clear
snapshot-crc
EOF

{
  printf 'load-snapshot %s\nsubcube-init\nsubcube-load %s\n' \
    "$WORK/warehouse.dwsnap" "$DEMO_DIR/clicks.csv"
  cat "$WORK/shared.dwred"
} > "$WORK/local.dwred"
"$DWREDCTL" "$WORK/local.dwred" > "$WORK/local.raw"
sed -n '/^---- shared ----$/,$p' "$WORK/local.raw" > "$WORK/local.out"

# The output file exists before the launch: the forked child opens the
# redirect, maybe after the first poll below.
: > "$WORK/dwredd.out"
"$DWREDD" --port=0 --snapshot="$WORK/warehouse.dwsnap" \
  > "$WORK/dwredd.out" 2> "$WORK/dwredd.err" &
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
"$DWREDCTL" --connect="$ADDR" "$WORK/shared.dwred" > "$WORK/remote.out"

# A <date> that is not a day is exit 1 with the grammar's message, both ways.
for cmd in 'subcube-query 2000/11 Time.month, URL.domain' \
           'explain 2000/11 Time.month, URL.domain where Time.month <= 1999/11'; do
  for connect in "" "--connect=$ADDR"; do
    rc=0
    printf '%s\n' "$cmd" | "$DWREDCTL" $connect - > /dev/null 2> "$WORK/err" \
      || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "expected a day" "$WORK/err"; then
      echo "'$cmd' ${connect:-in process}: want exit 1, got $rc:"
      cat "$WORK/err"; exit 1
    fi
  done
done

printf 'shutdown\n' | "$DWREDCTL" --connect="$ADDR" - > /dev/null
wait "$SERVER_PID"
SERVER_PID=""

grep -q "rows migrated" "$WORK/local.out" || {
  echo "the transcript never synchronized:"; cat "$WORK/local.out"; exit 1; }
if ! cmp -s "$WORK/local.out" "$WORK/remote.out"; then
  echo "in-process and --connect transcripts differ:"
  diff "$WORK/local.out" "$WORK/remote.out" || true
  exit 1
fi
echo "transcripts identical ($(wc -l < "$WORK/local.out") lines)"
