#!/usr/bin/env bash
# Bench pin: runs one bench and checks its answers against a committed file.
#
#   pin.sh <expected.txt> <command> [args...]
#     The command's stdout must equal the file byte for byte; on a mismatch
#     the unified diff (expected first, then what the bench printed) is
#     printed.
#   pin.sh <baseline.json> <nfvpr> <command> [args...]
#     The command runs with `--json <table>` appended, and `nfvpr report`
#     diffs the table against the baseline at a threshold no wall clock or
#     speedup can reach: every answer column must match exactly.
#
# A deliberate change to an answer is committed by rewriting the file from
# the command's new output.
set -u

EXPECTED=${1:?usage: pin.sh <expected file> [<nfvpr>] <command> [args...]}
shift

actual=$(mktemp) || exit 2
trap 'rm -f "$actual"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

case $EXPECTED in
  *.json)
    NFVPR=$1
    shift
    "$@" --json "$actual" > /dev/null || fail "$* exited $?"
    "$NFVPR" report --in "$actual" --baseline "$EXPECTED" --threshold 1e9 \
      --fail-on-regression || fail "$* no longer reproduces $EXPECTED"
    ;;
  *)
    "$@" > "$actual" || fail "$* exited $?"
    diff -u "$EXPECTED" "$actual" || fail "$* no longer prints $EXPECTED"
    ;;
esac
