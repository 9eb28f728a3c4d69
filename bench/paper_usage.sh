#!/usr/bin/env bash
# Usage contract of the pinned paper benches: bench_paper with no id or an
# unknown id is a usage error (exit 2) and its --help exits 0 and lists
# every paper id; every bench exits 0 for --help and 2 for a bad flag.
# Usage: paper_usage.sh <bench_paper> [<other bench>...]
set -u

BENCH=${1:?usage: paper_usage.sh <bench_paper> [<other bench>...]}
fail=0

"$BENCH" > /dev/null 2>&1
[ $? -eq 2 ] || { echo "FAIL: bench_paper with no id did not exit 2" >&2; fail=1; }
"$BENCH" fig99 > /dev/null 2>&1
[ $? -eq 2 ] || { echo "FAIL: bench_paper fig99 did not exit 2" >&2; fail=1; }

help=$("$BENCH" --help)
[ $? -eq 0 ] || { echo "FAIL: bench_paper --help did not exit 0" >&2; fail=1; }
for id in fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 \
          fig15 fig16 tail_latency joint_total_latency; do
  grep -qw -- "$id" <<< "$help" || { echo "FAIL: --help does not list $id" >&2; fail=1; }
done

for bench in "$@"; do
  "$bench" --help > /dev/null 2>&1
  [ $? -eq 0 ] || { echo "FAIL: $bench --help did not exit 0" >&2; fail=1; }
  "$bench" --bogus-flag > /dev/null 2>&1
  [ $? -eq 2 ] || { echo "FAIL: $bench --bogus-flag did not exit 2" >&2; fail=1; }
done
exit "$fail"
