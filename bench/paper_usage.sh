#!/usr/bin/env bash
# Usage contract of bench_paper: no id and an unknown id are usage errors
# (exit 2); --help exits 0 and lists every paper id.
# Usage: paper_usage.sh <bench_paper binary>
set -u

BENCH=${1:?usage: paper_usage.sh <bench_paper binary>}
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
exit "$fail"
