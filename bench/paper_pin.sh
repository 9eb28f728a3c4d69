#!/usr/bin/env bash
# Paper pin: runs one paper bench and compares its stdout with the
# committed bench/expected/<pin>.txt.  On a mismatch it prints a unified
# diff (expected first, then what the bench printed) and fails.  A
# deliberate change to a figure is committed by rewriting that file with
# the bench's new stdout.
# Usage: paper_pin.sh <expected file> <command> [args...]
set -u

EXPECTED=${1:?usage: paper_pin.sh <expected file> <command> [args...]}
shift

actual=$(mktemp) || exit 2
trap 'rm -f "$actual"' EXIT

"$@" > "$actual"
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: $* exited $status" >&2
  exit 1
fi
if ! diff -u "$EXPECTED" "$actual"; then
  echo "FAIL: $* no longer prints $EXPECTED" >&2
  exit 1
fi
