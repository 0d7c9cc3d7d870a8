#!/usr/bin/env bash
# End-to-end test of the backlogctl and backlogd binaries.
#
#   tests/cli_smoke.sh <path/to/backlogctl> <path/to/backlogd>
#
# Runs every service subcommand in both modes (local: the root hosted
# in-process for one command; remote: --connect to a running backlogd),
# checks that each malformed invocation exits 2 without touching its root,
# and checks that the volume reports (runs, query, raw, scan, dump-run)
# print the same bytes locally, with the daemon stopped, as over --connect
# on the same quiescent root. Registered with ctest as `cli_smoke`.
set -euo pipefail

CTL=$1
DAEMON=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/cli_smoke.XXXXXX")
DPID=
cleanup() {
  if [ -n "$DPID" ]; then
    kill "$DPID" 2>/dev/null || true
    wait "$DPID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# ok <cmd...>: must exit 0; its stdout is left in $WORK/out.
ok() {
  "$@" > "$WORK/out" 2> "$WORK/err" || {
    local rc=$?
    cat "$WORK/err" >&2
    fail "exit $rc: $*"
  }
}

# usage_error <cmd...>: must exit 2 (usage) and print nothing on stdout.
usage_error() {
  local rc=0
  "$@" > "$WORK/out" 2>/dev/null || rc=$?
  [ "$rc" -eq 2 ] || fail "expected exit 2, got $rc: $*"
  [ ! -s "$WORK/out" ] || fail "usage error printed to stdout: $*"
}

expect() {  # expect <regex>: the last `ok` output matches
  grep -Eq -- "$1" "$WORK/out" || { cat "$WORK/out" >&2; fail "no '$1'"; }
}

start_daemon() {  # start_daemon <root>: sets DPID and PORT
  "$DAEMON" "$1" --port 0 --shards 2 --io-threads 2 > "$WORK/daemon.log" 2>&1 &
  DPID=$!
  PORT=
  for _ in $(seq 200); do
    PORT=$(sed -n 's/^backlogd: listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
           "$WORK/daemon.log")
    [ -n "$PORT" ] && return 0
    kill -0 "$DPID" 2>/dev/null || { cat "$WORK/daemon.log" >&2; fail "backlogd exited"; }
    sleep 0.05
  done
  fail "backlogd did not report its port"
}

stop_daemon() {  # SIGTERM must shut the daemon down cleanly (exit 0)
  kill -TERM "$DPID"
  local rc=0
  wait "$DPID" || rc=$?
  DPID=
  [ "$rc" -eq 0 ] || { cat "$WORK/daemon.log" >&2; fail "backlogd exited $rc"; }
}

# --- malformed invocations: exit 2, nothing opened or dialed ------------------

X="$WORK/never-created"
usage_error "$CTL"
usage_error "$CTL" stress "$X" notanumber 10
usage_error "$CTL" stress "$X" 4
usage_error "$CTL" stress "$X" 4 10 4 --batch 0
usage_error "$CTL" stress "$X" 4 10 --batch notanumber
usage_error "$CTL" migrate "$X" tenant-000 9 4
usage_error "$CTL" qos "$X" tenant-000 -5 0
usage_error "$CTL" balance "$X" 0
usage_error "$CTL" destroy "$X"
usage_error "$CTL" query "$X/tenant-000" abc
usage_error "$CTL" frobnicate "$X"
usage_error "$CTL" stats
usage_error "$CTL" stats "$X" notanumber
usage_error "$CTL" stats "$X" 4 --json --json
usage_error "$CTL" metrics "$X" --prom --json
usage_error "$CTL" metrics "$X" --watch
usage_error "$CTL" metrics "$X" --watch 0
usage_error "$CTL" trace "$X" 4
usage_error "$CTL" trace "$X" 4 10 --sample 0
usage_error "$CTL" cache
usage_error "$CTL" cache "$X" notanumber
usage_error "$CTL" cache clear "$X" --json
# Remote invocations are validated before connecting: nothing listens on
# these ports.
usage_error "$CTL" --connect
usage_error "$CTL" --connect 127.0.0.1:19999
usage_error "$CTL" --connect nohostport stats x
usage_error "$CTL" --connect 127.0.0.1:99999 stats x
usage_error "$CTL" --connect 127.0.0.1:1 stress x notanumber 10
usage_error "$CTL" --connect 127.0.0.1:1 qos x tenant-000 -5 0
usage_error "$CTL" --connect 127.0.0.1:1 metrics x --watch 0
usage_error "$CTL" --connect 127.0.0.1:1 frobnicate x
usage_error "$CTL" --connect 127.0.0.1:1 migrate x tenant-000 9 4
[ ! -e "$X" ] || fail "a malformed invocation created $X"

# --- every service subcommand, in both modes ---------------------------------

# service_smoke <root-arg> <backlogctl prefix...>
service_smoke() {
  local R=$1
  shift
  ok "$@" stress "$R" 8 40000 4
  expect '^block ops: +40000 '
  ok "$@" stress "$R" 8 40000 4 --batch 512
  expect '512-op chunks'
  ok "$@" qos "$R" tenant-000 20000 0 4000
  expect '^admission: '
  ok "$@" balance "$R" 4 3
  expect '^moves: '
  ok "$@" snap "$R" tenant-000
  ok "$@" clone "$R" tenant-000 tenant-cow
  expect '^copy-on-write: [1-9]'
  ok "$@" destroy "$R" tenant-cow
  expect '^destroyed tenant-cow: released [1-9][0-9]* shared-file references'
  ok "$@" migrate "$R" tenant-000 1
  ok "$@" stats "$R" 4
  expect '^tenant-007 '
  ok "$@" stats "$R" 4 --json
  ok "$@" metrics "$R" 4 --json
  ok "$@" metrics "$R" 4 --prom
  expect '^backlog_updates_total '
  ok "$@" metrics "$R" 4 --watch 2
  expect 'update ops/s'
  ok "$@" cache "$R" 4
  ok "$@" cache "$R" 4 --json
  ok "$@" cache clear "$R" 4
  expect '^caches cleared$'
  ok "$@" trace "$R" 4 20000 2 --sample 8 --slow-us 500
  expect '^sampled spans: [1-9]'
}

LOCAL="$WORK/local"
service_smoke "$LOCAL" "$CTL"
for cmd in info runs scan maintain; do ok "$CTL" "$cmd" "$LOCAL/tenant-000"; done
ok "$CTL" query "$LOCAL/tenant-000" 1 8
expect 'versions:'

REMOTE="$WORK/remote"
start_daemon "$REMOTE"
C=("$CTL" --connect "127.0.0.1:$PORT" --wait-ms 10000)
service_smoke x "${C[@]}"
for cmd in info runs scan maintain; do ok "${C[@]}" "$cmd" tenant-000; done
ok "${C[@]}" query tenant-000 1 8
expect 'versions:'
stop_daemon

# stress keeps a bounded number of connections however many tenants it has.
ok "$CTL" stress "$WORK/wide" 40 4000 2
expect '^tenants: +40 over 16 connections$'
expect '^tenant-039 '

# Volume discovery: a dotted tenant name is hosted, a crashed clone's
# staging directory is cleaned up and never mistaken for a volume.
mkdir "$LOCAL/vol.1" "$LOCAL/tenant-000.cloning"
ok "$CTL" stats "$LOCAL"
expect '^vol\.1 '
! grep -q cloning "$WORK/out" || fail "stats listed a staging directory"
[ ! -e "$LOCAL/tenant-000.cloning" ] || fail "staging directory survived"

# --- volume reports: same bytes locally and over --connect --------------------

start_daemon "$LOCAL"
C=("$CTL" --connect "127.0.0.1:$PORT")
ok "${C[@]}" runs tenant-000
cp "$WORK/out" "$WORK/runs.remote"
RUN=$(awk '/\.run /{print $1; exit}' "$WORK/runs.remote")
[ -n "$RUN" ] || fail "runs listed no run file"
ok "${C[@]}" query tenant-000 1 8;  cp "$WORK/out" "$WORK/query.remote"
ok "${C[@]}" raw tenant-000 1 8;    cp "$WORK/out" "$WORK/raw.remote"
ok "${C[@]}" scan tenant-000;       cp "$WORK/out" "$WORK/scan.remote"
ok "${C[@]}" dump-run tenant-000 "$RUN"; cp "$WORK/out" "$WORK/dump-run.remote"
stop_daemon

V="$LOCAL/tenant-000"
ok "$CTL" runs "$V";            cp "$WORK/out" "$WORK/runs.local"
ok "$CTL" query "$V" 1 8;       cp "$WORK/out" "$WORK/query.local"
ok "$CTL" raw "$V" 1 8;         cp "$WORK/out" "$WORK/raw.local"
ok "$CTL" scan "$V";            cp "$WORK/out" "$WORK/scan.local"
ok "$CTL" dump-run "$V" "$RUN"; cp "$WORK/out" "$WORK/dump-run.local"
for r in runs query raw scan dump-run; do
  [ -s "$WORK/$r.local" ] || fail "$r printed nothing"
  cmp "$WORK/$r.local" "$WORK/$r.remote" || fail "$r differs between modes"
done

echo "cli_smoke: ok"
