#!/bin/sh
# One of each: fails if a copy of the shared hash, RNG or JSON escape
# reappears outside src/util (util/hash.h, util/rng.h, util/json.*).  Pure
# grep over the C++ sources, no build; run as the check_single_impl ctest
# and by the CI docs job.
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo" || exit 1
fail=0

check() {  # <what> <extended regex>
  hits=$(grep -rnEi --include='*.h' --include='*.cpp' -- "$2" \
    src tests bench tools examples | grep -v '^src/util/')
  if [ -n "$hits" ]; then
    echo "FAIL: $1 outside src/util:"
    echo "$hits"
    fail=1
  fi
}

check "FNV-64 offset basis" 'cbf29ce484222325|1469598103934665603'
check "FNV-64 prime" '100000001b3|1099511628211'
check "splitmix64 body" 'bf58476d1ce4e5b9|94d049bb133111eb'
check "LCG step (use util::Rng)" '6364136223846793005'
check "JSON escaper definition" '(jsonEscape|escapeTo)\([^)]*\)[[:space:]]*\{'

[ "$fail" -eq 0 ] && echo "check_single_impl: ok"
exit "$fail"
