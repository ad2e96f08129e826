#!/bin/sh
# The mapping cache's CLI contracts, on a fresh cache directory:
#  * a warm `mars_map serve` and `explore --quick` print exactly what the
#    cold runs that filled the cache printed;
#  * warm `serve`, `comap --quick` and `explore --quick` runs load every
#    mapping they need: their `--metrics` counters read
#    serve.cache.misses=0 and serve.cache.stores=0, with hits > 0.
#
#   sh tests/cli/cache_contracts.sh /abs/path/to/mars_map
#
# ctest runs it (label `contracts`), and so does CI's mapping-cache step.
set -u
mars_map=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2
failures=0

# fail MESSAGE [STDERR_FILE]
fail() {
  echo "FAIL: $1"
  if [ $# -gt 1 ]; then sed 's/^/  stderr: /' "$2"; fi
  failures=$((failures + 1))
}

# counter NAME STDERR_FILE: the `metric NAME=<n>` value a --metrics run
# printed. The registry only reports counters that moved, so an absent
# line reads 0.
counter() {
  value=$(sed -n "s/^metric $1=//p" "$2")
  echo "${value:-0}"
}

# args RUN: the command line of one run.
args() {
  case $1 in
    serve) echo "serve --model facebagnet --model resnet50 --rate 200" \
      "--duration 2 --seed 1" ;;
    comap) echo "comap --model facebagnet --model resnet50 --rate 150 --quick" ;;
    explore) echo "explore --quick" ;;
  esac
}

# Cold runs fill the cache.
for run in serve comap explore; do
  # shellcheck disable=SC2046
  "$mars_map" $(args "$run") --mapping-cache cache > "$run-cold.out" \
    2> err.txt || fail "cold $run exited $?" err.txt
done

# Warm runs hit every entry and store none.
for run in serve comap explore; do
  # shellcheck disable=SC2046
  "$mars_map" $(args "$run") --mapping-cache cache --metrics "$run.json" \
    > "$run-warm.out" 2> "$run-warm.err" ||
    fail "warm $run exited $?" "$run-warm.err"
  [ "$(counter serve.cache.misses "$run-warm.err")" = 0 ] ||
    fail "warm $run missed the cache" "$run-warm.err"
  [ "$(counter serve.cache.stores "$run-warm.err")" = 0 ] ||
    fail "warm $run stored into the cache" "$run-warm.err"
  [ "$(counter serve.cache.hits "$run-warm.err")" -gt 0 ] ||
    fail "warm $run never hit the cache" "$run-warm.err"
done

# A cache hit changes no serve or explore output. (comap's report names
# each inner search's evaluation count, which a hit does not have.)
for run in serve explore; do
  cmp "$run-cold.out" "$run-warm.out" ||
    fail "warm $run printed something other than the cold run"
done

if [ "$failures" -ne 0 ]; then
  echo "$failures cache contract(s) failed"
  exit 1
fi
echo "cache contracts hold: warm serve and explore print what cold runs" \
  "print; warm serve, comap and explore load every mapping and store none"
