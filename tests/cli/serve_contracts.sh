#!/bin/sh
# Serving's byte-identity contracts:
#  * a traced `mars_map serve` run prints exactly what the untraced run
#    prints;
#  * its trace passes tools/check_trace.py, and the trace's
#    simulated-clock (pid 1) slice hashes to tools/serve_trace.sha256, so a
#    change that moves any simulated event fails;
#  * a sharded cloud:16:4 fleet prints the same report at --threads 1 and
#    4.
#
#   sh tests/cli/serve_contracts.sh /abs/path/to/mars_map /abs/path/to/repo
#
# ctest runs it (label `contracts`), and so does CI's serve trace smoke.
# The trace run writes a ~160 MB trace to a temporary directory, and the
# check holds it in memory (about 1 GB in Python).
set -u
mars_map=$1
root=$2
python=${PYTHON3:-python3}
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

# The serve trace command whose pid-1 digest is checked in.
"$mars_map" serve --model facebagnet --model resnet50 --rate 200 \
  --duration 10 --seed 1 --trace trace.json > serve-traced.out 2> err.txt ||
  fail "traced serve run exited $?" err.txt
"$mars_map" serve --model facebagnet --model resnet50 --rate 200 \
  --duration 10 --seed 1 > serve-plain.out 2> err.txt ||
  fail "untraced serve run exited $?" err.txt
cmp serve-traced.out serve-plain.out ||
  fail "tracing changed the serve report"
"$python" "$root/tools/check_trace.py" trace.json \
  --sim-digest "$root/tools/serve_trace.sha256" ||
  fail "check_trace.py rejected the serve trace or its pid-1 digest"
rm -f trace.json

# A sharded fleet: the report must not depend on the thread count.
for threads in 1 4; do
  "$mars_map" serve --model facebagnet --model resnet50 \
    --topology cloud:16:4 --shards 4 --rate 200 --duration 10 --seed 1 \
    --threads "$threads" > cloud-t"$threads".out 2> err.txt ||
    fail "cloud:16:4 serve at --threads $threads exited $?" err.txt
done
cmp cloud-t1.out cloud-t4.out ||
  fail "cloud:16:4 --shards 4 serve report differs at --threads 1 vs 4"

if [ "$failures" -ne 0 ]; then
  echo "$failures serve contract(s) failed"
  exit 1
fi
echo "serve contracts hold: traced == untraced, pid-1 digest matches," \
  "cloud:16:4 report identical at --threads 1 and 4"
