#!/usr/bin/env bash
# Every public header must have a caller: some file under src/, tools/,
# bench/ or examples/ other than the header's own .cc must include it.
# A module that only its tests use is dead weight and gets deleted.
# Usage: header_callers.sh /path/to/repo
set -u

ROOT=${1:?usage: header_callers.sh /path/to/repo}
cd "$ROOT" || exit 2

# Closed-form oracles the DES is checked against (des_validation_test,
# finite_buffer_test): test-only by design.
ALLOW="nfv/queueing/jackson.h nfv/queueing/mm1k.h"

failures=0
for header in src/*/include/nfv/*/*.h; do
  name=${header#src/*/include/}
  case " $ALLOW " in *" $name "*) continue ;; esac
  module=${header#src/}
  own="src/${module%%/*}/src/$(basename "$name" .h).cc"
  callers=$(grep -rlF "#include \"$name\"" src tools bench examples |
            grep -vxF "$own")
  if [ -z "$callers" ]; then
    echo "FAIL: $name has no caller outside its own .cc and the tests" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures header(s) without a caller" >&2
  exit 1
fi
echo "ok: every public header has a caller"
