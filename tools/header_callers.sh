#!/usr/bin/env bash
# Every public header must have a caller: some file under src/, tools/,
# bench/ or examples/ other than the header's own .cc must include it.
# A module that only its tests use is dead weight and gets deleted.
# The allowlist cannot go stale: an allowlisted header that no longer
# exists, or that has gained a caller, fails the check too.
# Usage: header_callers.sh /path/to/repo
set -u

ROOT=${1:?usage: header_callers.sh /path/to/repo}
cd "$ROOT" || exit 2

# Closed-form oracle the DES is checked against (des_validation_test):
# test-only by design.
ALLOW="nfv/queueing/jackson.h"

# Prints the files that include public header $1 (path under src/*/include/,
# found at $2), its own .cc excepted.
callers() {
  local module=${2#src/}
  local own="src/${module%%/*}/src/$(basename "$1" .h).cc"
  grep -rlF "#include \"$1\"" src tools bench examples | grep -vxF "$own"
}

failures=0
for name in $ALLOW; do
  header=
  for h in src/*/include/"$name"; do [ -f "$h" ] && header=$h; done
  if [ -z "$header" ]; then
    echo "FAIL: allowlisted $name does not exist" >&2
    failures=$((failures + 1))
  elif [ -n "$(callers "$name" "$header")" ]; then
    echo "FAIL: allowlisted $name has a caller; drop it from ALLOW" >&2
    failures=$((failures + 1))
  fi
done

for header in src/*/include/nfv/*/*.h; do
  name=${header#src/*/include/}
  case " $ALLOW " in *" $name "*) continue ;; esac
  if [ -z "$(callers "$name" "$header")" ]; then
    echo "FAIL: $name has no caller outside its own .cc and the tests" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "$failures header check(s) failed" >&2
  exit 1
fi
echo "ok: every public header has a caller"
