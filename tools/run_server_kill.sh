#!/bin/sh
# docs/SERVER.md exit-code contract, failure half: a server that vanishes
# mid-stream must surface as Unavailable (exit 6) with the Status on stderr —
# never a hang, never exit 0.
#
# Two scenarios:
#   1. SIGKILL between commands: the client's next command hits a dead peer
#      (EPIPE on send, or EOF short read on recv).
#   2. Clean `shutdown` followed by another command on the same connection:
#      the server answered the shutdown, then closed; the follow-up command
#      is a documented short read.
#
# usage: run_server_kill.sh <dwredd> <dwredctl>
set -eu

DWREDD="$1"
DWREDCTL="$2"

WORK="$(mktemp -d /tmp/dwred_server_kill.XXXXXX)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

boot_server() {
  # The redirect below is opened by the forked child, maybe after the first
  # poll: create (or empty) the file first, so the poll never reads a missing
  # file or the previous server's listener line.
  : > "$WORK/dwredd.out"
  "$DWREDD" --port=0 > "$WORK/dwredd.out" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 300); do
    ADDR="$(sed -n 's/^dwredd listening on //p' "$WORK/dwredd.out")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "dwredd never printed its listener line"; exit 1; }
}

# --- scenario 1: SIGKILL the server, then issue a command -------------------
boot_server
printf 'ping\n' | "$DWREDCTL" --connect="$ADDR" -   # server is healthy
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
rc=0
printf 'ping\n' | "$DWREDCTL" --connect="$ADDR" - \
  > "$WORK/killed.out" 2> "$WORK/killed.err" || rc=$?
[ "$rc" -eq 6 ] || {
  echo "expected exit 6 after SIGKILL, got $rc"; cat "$WORK/killed.err"
  exit 1; }
grep -q "Unavailable" "$WORK/killed.err" || {
  echo "no Unavailable status on stderr:"; cat "$WORK/killed.err"; exit 1; }
echo "SIGKILL scenario OK (exit 6, Unavailable on stderr)"

# --- scenario 2: clean shutdown, then another command, same connection ------
boot_server
rc=0
printf 'ping\nshutdown\nping\n' | "$DWREDCTL" --connect="$ADDR" - \
  > "$WORK/shutdown.out" 2> "$WORK/shutdown.err" || rc=$?
wait "$SERVER_PID" 2>/dev/null || true
[ "$rc" -eq 6 ] || {
  echo "expected exit 6 after shutdown mid-script, got $rc"
  cat "$WORK/shutdown.err"; exit 1; }
grep -q "Unavailable" "$WORK/shutdown.err" || {
  echo "no Unavailable status on stderr:"; cat "$WORK/shutdown.err"; exit 1; }
echo "shutdown-mid-script scenario OK (exit 6, Unavailable on stderr)"
