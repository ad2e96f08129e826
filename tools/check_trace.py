#!/usr/bin/env python3
"""Validate a Chrome Trace Event JSON file emitted by `--trace`.

Checks the JSON-object envelope ({"traceEvents": [...]}) and, per event:

* required fields by phase — every event needs name/ph/pid/tid; "X" also
  needs ts and a non-negative dur; "i" a scope "s"; "b"/"e" a cat and id;
  "C" an args.value; "M" an args.name;
* duration ("B"/"E") events nest properly per (pid, tid): every "E" closes
  a matching open "B", none left open at the end;
* complete ("X") events nest properly per (pid, tid): two spans on one
  track are either disjoint or one contains the other, which is what a
  viewer can draw as one lane (spans of different threads belong on
  different tracks);
* nestable async ("b"/"e") events balance per (pid, cat, id), begins
  before ends;
* timestamps are non-decreasing per (pid, tid) in array order — the
  recorder sorts its export, so out-of-order timestamps mean a broken
  merge.

A valid trace's summary line ends with the SHA-256 of its simulated-clock
(pid 1) slice: every pid-1 event in array order, one canonical JSON dump
(sorted keys, no spaces) per line. That slice is byte-identical per seed
across runs and --threads values (docs/OBSERVABILITY.md), so its digest
pins a replay. With `--sim-digest FILE` the digest must also equal the
one recorded in FILE (its first line that is not blank or a # comment).

Exit status: 0 when the trace is valid (and its digest matches), 1 when
any check fails (each failure is listed with its event index), 2 on usage
or I/O errors.
"""

import hashlib
import json
import sys

KNOWN_PHASES = {"X", "B", "E", "i", "I", "C", "b", "e", "n", "M"}

# Slack for span ends that the export rounds to 12 significant digits
# (microseconds): far below any real overlap.
NEST_SLACK_US = 1e-3


def overlapping_spans(spans):
    """Yields (index, enclosing index) for each span of one track that
    starts inside an earlier span and ends after it. `spans` holds
    (start, duration, event index) triples; at equal starts the longer
    span encloses the shorter one."""
    open_spans = []  # (end, index) of the enclosing spans, innermost last
    for start, dur, index in sorted(spans, key=lambda s: (s[0], -s[1], s[2])):
        while open_spans and open_spans[-1][0] <= start + NEST_SLACK_US:
            open_spans.pop()
        end = start + dur
        if open_spans and end > open_spans[-1][0] + NEST_SLACK_US:
            yield index, open_spans[-1][1]
            continue
        open_spans.append((end, index))


def validate(doc):
    failures = []

    def fail(index, message):
        failures.append(f"event {index}: {message}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ['document: expected an object with a "traceEvents" array']
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ['document: "traceEvents" is not an array']

    open_durations = {}  # (pid, tid) -> [names of open "B" events]
    open_async = {}  # (pid, cat, id) -> open "b" count
    last_ts = {}  # (pid, tid) -> last seen timestamp
    complete_spans = {}  # (pid, tid) -> [(ts, dur, event index)] of "X"

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(index, "not an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            fail(index, f"unknown phase {phase!r}")
            continue
        for field in ("name", "pid"):
            if field not in event:
                fail(index, f'phase "{phase}" is missing "{field}"')
        if phase != "M" and "tid" not in event:
            fail(index, f'phase "{phase}" is missing "tid"')

        pid, tid = event.get("pid"), event.get("tid", 0)
        track = (pid, tid)
        ts = event.get("ts")

        if phase == "M":
            if not isinstance(event.get("args"), dict) or "name" not in event["args"]:
                fail(index, 'metadata event is missing "args.name"')
            continue

        if not isinstance(ts, (int, float)):
            fail(index, f'phase "{phase}" is missing a numeric "ts"')
            continue
        if ts < last_ts.get(track, float("-inf")):
            fail(
                index,
                f"timestamp {ts} goes backwards on track pid={pid} tid={tid} "
                f"(previous {last_ts[track]})",
            )
        last_ts[track] = ts

        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)):
                fail(index, 'complete event is missing a numeric "dur"')
            elif dur < 0:
                fail(index, f"complete event has negative dur {dur}")
            else:
                complete_spans.setdefault(track, []).append((ts, dur, index))
        elif phase == "B":
            open_durations.setdefault(track, []).append(event.get("name"))
        elif phase == "E":
            stack = open_durations.get(track, [])
            if not stack:
                fail(index, f'"E" with no open "B" on pid={pid} tid={tid}')
            else:
                stack.pop()
        elif phase in ("i", "I"):
            if event.get("s", "t") not in ("t", "p", "g"):
                fail(index, f'instant event has invalid scope {event.get("s")!r}')
        elif phase == "C":
            if not isinstance(event.get("args"), dict) or not event["args"]:
                fail(index, 'counter event is missing "args" values')
        elif phase in ("b", "e", "n"):
            if "cat" not in event or "id" not in event:
                fail(index, f'nestable async "{phase}" needs "cat" and "id"')
                continue
            key = (pid, event["cat"], event["id"])
            if phase == "b":
                open_async[key] = open_async.get(key, 0) + 1
            elif phase == "e":
                if open_async.get(key, 0) == 0:
                    fail(index, f'async "e" with no open "b" for {key}')
                else:
                    open_async[key] -= 1

    for (pid, tid), spans in complete_spans.items():
        for index, enclosing in overlapping_spans(spans):
            fail(
                index,
                f'"X" overlaps event {enclosing} on pid={pid} tid={tid} '
                "without nesting inside it",
            )
    for (pid, tid), stack in open_durations.items():
        for name in stack:
            failures.append(
                f'end of trace: "B" event {name!r} never closed on '
                f"pid={pid} tid={tid}"
            )
    for key, count in open_async.items():
        if count:
            failures.append(
                f"end of trace: {count} async begin(s) never closed for "
                f"(pid, cat, id)={key}"
            )
    return failures


def sim_digest(events):
    """SHA-256 of the pid-1 events, one canonical JSON dump per line."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256()
    for event in events:
        if event.get("pid") == 1:
            digest.update(encoder.encode(event).encode("utf-8") + b"\n")
    return digest.hexdigest()


def recorded_digest(path):
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                return line
    return ""


def main(argv):
    usage = f"usage: {argv[0]} TRACE.json [--sim-digest FILE]"
    args = argv[1:]
    expected_path = None
    if len(args) == 3 and args[1] == "--sim-digest":
        expected_path = args[2]
        args = args[:1]
    if len(args) != 1 or args[0].startswith("--"):
        print(usage, file=sys.stderr)
        return 2
    path = args[0]
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        expected = recorded_digest(expected_path) if expected_path else None
    except OSError as error:
        print(f"error: cannot read {error.filename}: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"error: {path} is not valid JSON: {error}", file=sys.stderr)
        return 1
    failures = validate(doc)
    for failure in failures:
        print(f"{path}: {failure}", file=sys.stderr)
    if failures:
        print(f"{path}: INVALID ({len(failures)} failure(s))", file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    data = sum(1 for event in events if event.get("ph") != "M")
    digest = sim_digest(events)
    print(
        f"{path}: ok ({data} events, {len(events) - data} metadata, "
        f"pid-1 sha256 {digest})"
    )
    if expected is not None and digest != expected:
        print(
            f"{path}: pid-1 slice sha256 {digest} differs from {expected} "
            f"recorded in {expected_path}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
