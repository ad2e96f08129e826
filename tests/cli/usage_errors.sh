#!/bin/sh
# The mars_map usage-error contract: every bad invocation below must exit 1,
# print the expected named error on stderr, and print no raw check or
# conversion text (MARS_CHECK, stoi, stod, std::).
#
#   sh tests/cli/usage_errors.sh /abs/path/to/mars_map
#
# Every case fails while its flags are parsed or the problem is set up, so
# no search runs.
set -u
mars_map=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2
failures=0

fail() {
  echo "FAIL ($1): mars_map $2"
  sed 's/^/  stderr: /' err.txt
  failures=$((failures + 1))
}

# expect STDERR_TEXT ARGS... — runs mars_map ARGS... and checks the contract.
expect() {
  want=$1
  shift
  status=0
  "$mars_map" "$@" > out.txt 2> err.txt || status=$?
  if [ "$status" -ne 1 ]; then
    fail "exit $status, want 1" "$*"
  elif ! grep -qF -- "$want" err.txt; then
    fail "stderr lacks '$want'" "$*"
  elif grep -qE 'MARS_CHECK|stoi|stod|std::' err.txt; then
    fail "raw check or std:: text" "$*"
  fi
}

# Unknown, misspelled or inapplicable flags, and positional tokens.
expect "error: --thread is not a flag" map --model alexnet --quick --thread 4
expect "error: unexpected argument 'alexnet'" map alexnet --quick
expect "(--quick takes no value)" map --quick alexnet
expect "error: --quick is not a flag" baseline --model resnet34 --quick
expect "error: --quick is not a flag" profile --model vgg16 --quick
expect "error: --bogus is not a flag" models --bogus
# Values that are missing, not finite, not whole or out of range.
expect "error: --json needs a value" map --model alexnet --quick --json
expect "error: --slo needs a finite number" \
  serve --model alexnet --mapper baseline --duration 1 --slo nan
expect "error: --rate needs a finite number" \
  serve --model alexnet --mapper baseline --duration 1 --rate nan
expect "error: --duration needs a finite number" \
  serve --model alexnet --mapper baseline --duration nan
expect "error: --think needs a finite number" \
  serve --model alexnet --mapper baseline --clients 2 --think nan
expect "error: --rate needs a finite number" \
  comap --model alexnet --rate nan
expect "error: --search-budget needs a finite number" \
  map --model alexnet --quick --search-budget nan
expect "error: --batch must be in [1, inf)" \
  throughput --model alexnet --quick --batch 0
expect "error: --threads must be in [1, 1024]" \
  map --model alexnet --quick --threads 0
expect "error: --seed needs a non-negative integer" \
  map --model alexnet --quick --seed abc
# Spec grammars and names.
expect "error: --topology 'cloud:abc:8'" \
  map --model alexnet --quick --topology cloud:abc:8
expect "error: --topology 'cloud:100000:8' needs an integer count of 1 to 64" \
  map --model alexnet --quick --topology cloud:100000:8
expect "error: unknown model 'lenet'" map --model lenet --quick
expect "error: bad --model weight" \
  serve --model alexnet:nan --mapper baseline --duration 1

# `<command> --help` prints the usage text and exits 0.
if ! "$mars_map" map --help > out.txt 2> err.txt ||
    ! grep -q '^usage: mars_map' out.txt; then
  fail "--help should print usage and exit 0" "map --help"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures usage-error case(s) failed"
  exit 1
fi
echo "all usage-error cases exit 1 with a named error"
