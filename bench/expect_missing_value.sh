#!/bin/sh
# Usage: expect_missing_value.sh <bench binary>
#
# Every value flag a bench parses, given with no value (as the last
# argument, as `--flag=`, or followed by an empty argument), must exit 2
# with "missing value for <flag>" before any benchmark runs.
bench=$1
fail=0
check() {
  flag=$1
  shift
  out=$("$bench" "$@" 2>&1)
  status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL $bench $*: exit $status, expected 2"
    fail=1
  elif ! printf '%s' "$out" | grep -q -- "missing value for $flag"; then
    echo "FAIL $bench $*: no 'missing value for $flag' in: $out"
    fail=1
  fi
}
for flag in --json-out --txn-trace --fault-plan --seed; do
  check "$flag" "$flag"
  check "$flag" "$flag="
  check "$flag" "$flag" ""
done
exit $fail
