#!/bin/sh
# The mars_map usage-error contract: every bad invocation below must exit 1,
# print the expected named error on stderr, print nothing on stdout, and
# print no raw check or conversion text (MARS_CHECK, stoi, stod, std::).
#
#   sh tests/cli/usage_errors.sh /abs/path/to/mars_map
#
# Every case fails while its flags, specs and input files are read, before
# any search runs or any report line is printed.
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
  elif [ -s out.txt ]; then
    fail "stdout not empty" "$*"
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
expect "error: map takes a bare model name, got --model 'alexnet:0:1'" \
  map --model alexnet:0:1 --quick
expect "error: bad --model weight" \
  serve --model alexnet:nan --mapper baseline --duration 1
expect "error: size-N batching needs N >= 1, got 0" \
  serve --model alexnet --mapper baseline --policy size:0
expect "error: batching timeout must be >= 0" \
  serve --model alexnet --mapper baseline --policy timeout:-1
expect "error: bad batching policy 'timeout:0x1'" \
  serve --model alexnet --mapper baseline --policy timeout:0x1
expect "error: bad admission policy 'slo:inf'" \
  serve --model alexnet --mapper baseline --policy slo:inf
expect "error: design space accs must be an integer in [2, 32], got '100'" \
  explore --quick --space accs=100
expect "error: design space bw must be a positive Gb/s value, got 'abc'" \
  explore --quick --space bw=abc
expect "error: design space bw must be a positive Gb/s value, got 'inf'" \
  explore --quick --space bw=inf
expect "error: race member seed must be a non-negative integer, got 'x'" \
  map --model alexnet --quick --mapper race:ga@x+anneal
expect "error: race per-member budget must be a positive ms count, got '0x10'" \
  map --model alexnet --quick --mapper race:ga+anneal,0x10

# Input files, read before any planning.
expect "error: cannot open model file '/nonexistent'" \
  map --model-file /nonexistent --quick
expect "error: cannot open trace file '/nonexistent.csv'" \
  serve --model alexnet --mapper baseline --replay /nonexistent.csv
for arrival in inf nan 0x10 1.5x +1; do
  printf 'arrival_s,model\n%s,alexnet\n' "$arrival" > trace.csv
  expect "error: trace line 2: bad arrival time '$arrival'" \
    serve --model alexnet --mapper baseline --replay trace.csv
done
printf '0.5,vgg16\n' > trace.csv
expect "error: trace names model 'vgg16' which is not served" \
  serve --model alexnet --mapper baseline --replay trace.csv
: > plain_file
expect "error: cannot create mapping cache directory 'plain_file'" \
  warm --models alexnet --mapping-cache plain_file
expect "error: --shard-models references 'nosuch'" \
  serve --model alexnet --topology cloud:8:4 --shards 2 --shard-models nosuch
expect "error: shard_models has 1 entries, expected one per shard (2)" \
  serve --model alexnet --model resnet50 --topology cloud:8:4 --shards 2 \
  --shard-models alexnet+resnet50

# `<command> --help` prints the usage text and exits 0.
if ! "$mars_map" map --help > out.txt 2> err.txt ||
    ! grep -q '^usage: mars_map' out.txt; then
  fail "--help should print usage and exit 0" "map --help"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures usage-error case(s) failed"
  exit 1
fi
echo "all usage-error cases exit 1 with a named error and no stdout"
