#!/usr/bin/env python3
"""Compare a fresh benchmark run against a checked-in baseline.

Two formats are understood, auto-detected from the file contents:

  gbench  Google Benchmark ``--benchmark_out_format=json`` output
          (``bench/baselines/BENCH_micro.json``). Entries are keyed
          by benchmark name; ``cpu_time`` is compared (less sensitive
          to host load than wall time).

  replay  ``bench_parallel_replay --json`` output
          (``bench/baselines/BENCH_batch.json``): one or more
          concatenated JSON arrays of row objects. Rows are keyed by
          their ``Shards``/``Batch`` column; every ``... req/s``
          column is compared, and the ``Identical`` column must stay
          ``yes`` — a determinism break is a hard failure regardless
          of tolerance.

A regression is a slowdown beyond ``--tolerance`` (default 0.50: CI
and developer machines are noisy — back-to-back idle runs of the
replay bench vary by up to ~35% on shared hosts — so the baselines
exist to catch step-change regressions, not single-digit drift).
Speedups never fail. Benchmarks present only in the fresh run are
warn-and-skip, never failures, and ``--allow-missing-baseline``
extends that to a baseline file that does not exist yet — both so a
new bench can land before its quiet-host baseline does. A baseline
entry (or replay row) absent from the fresh run IS a failure: deleting
or renaming a benchmark must not silently drop its gate, so the
baseline is edited in the same change. Exit status: 0 clean, 1
regression, missing entry or determinism break, 2 usage/parse error.

``--self-test`` replays the fixture pairs in
``scripts/bench_compare_fixtures/`` and checks each exit status.

Typical use:

  build/bench/bench_micro_structures --benchmark_filter=BlockCache \\
      --benchmark_out=fresh.json --benchmark_out_format=json
  scripts/bench_compare.py --baseline bench/baselines/BENCH_micro.json \\
      --fresh fresh.json

  build/bench/bench_parallel_replay --json --scale-denominator 65536 \\
      > fresh_batch.json
  scripts/bench_compare.py --baseline bench/baselines/BENCH_batch.json \\
      --fresh fresh_batch.json

Refreshing a baseline is deliberate: rerun on a quiet host and commit
the new file with a note on what changed. The committed replay
baseline is the per-row minimum of three back-to-back quiet-host
runs (a conservative floor, so honest fresh runs do not trip the
gate on host noise alone); regenerate it the same way.
"""

import argparse
import json
import os
import re
import sys


def loadJsonStream(path):
    """Parse one or more concatenated JSON documents from a file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    docs = []
    decoder = json.JSONDecoder()
    i, n = 0, len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        doc, end = decoder.raw_decode(text, i)
        docs.append(doc)
        i = end
    return docs


def detectFormat(docs):
    if len(docs) == 1 and isinstance(docs[0], dict) \
            and "benchmarks" in docs[0]:
        return "gbench"
    if all(isinstance(d, list) for d in docs):
        return "replay"
    return None


# --------------------------------------------------------------------
# gbench
# --------------------------------------------------------------------

_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def gbenchEntries(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = _TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        out[b["name"]] = float(b["cpu_time"]) * scale
    return out


def compareGbench(base_doc, fresh_doc, tolerance):
    base = gbenchEntries(base_doc)
    fresh = gbenchEntries(fresh_doc)
    failures = []
    for name in sorted(base):
        if name not in fresh:
            print(f"  MISSING {name} (in baseline, not in fresh run) "
                  f"<< MISSING")
            failures.append(f"{name} missing")
            continue
        b, f = base[name], fresh[name]
        ratio = f / b if b > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + tolerance:
            flag = "  << REGRESSION"
            failures.append(name)
        print(f"  {name}: {b:.1f} -> {f:.1f} ns "
              f"({(ratio - 1.0) * 100.0:+.1f}%){flag}")
    for name in sorted(set(fresh) - set(base)):
        # Warn-and-skip, never fail: new benches land before their
        # quiet-host baseline does.
        print(f"  NEW {name} (no baseline entry; skipped)")
    return failures


# --------------------------------------------------------------------
# replay
# --------------------------------------------------------------------

_KEY_COLUMNS = ("Shards", "Batch")
_RATE_RE = re.compile(r"req/s$")


def replayRows(docs):
    """(table index, key column, key value) -> row dict."""
    rows = {}
    for t, doc in enumerate(docs):
        for row in doc:
            for key_col in _KEY_COLUMNS:
                if key_col in row:
                    rows[(t, key_col, row[key_col])] = row
                    break
    return rows


def compareReplay(base_docs, fresh_docs, tolerance):
    base = replayRows(base_docs)
    fresh = replayRows(fresh_docs)
    failures = []
    for key in sorted(set(fresh) - set(base), key=str):
        print(f"  NEW row {key[1]}={key[2]} "
              f"(no baseline entry; skipped)")
    for key in sorted(base, key=str):
        if key not in fresh:
            print(f"  MISSING row {key[1]}={key[2]} << MISSING")
            failures.append(f"{key[1]}={key[2]} missing")
            continue
        brow, frow = base[key], fresh[key]
        label = f"{key[1]}={key[2]}"
        if frow.get("Identical", "yes") != "yes":
            print(f"  {label}: Identical={frow['Identical']} "
                  f"<< DETERMINISM BREAK")
            failures.append(f"{label} determinism")
        for col in brow:
            if not _RATE_RE.search(col) or col not in frow:
                continue
            b = float(str(brow[col]).replace(",", ""))
            f = float(str(frow[col]).replace(",", ""))
            if b <= 0:
                continue
            ratio = f / b
            flag = ""
            if ratio < 1.0 - tolerance:
                flag = "  << REGRESSION"
                failures.append(f"{label} {col}")
            print(f"  {label} {col}: {b:.0f} -> {f:.0f} "
                  f"({(ratio - 1.0) * 100.0:+.1f}%){flag}")
    return failures


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_compare_fixtures")

# (baseline fixture, fresh fixture, expected exit status)
SELF_TEST_CASES = (
    ("gbench_base.json", "gbench_base.json", 0),
    ("gbench_base.json", "gbench_new_entry.json", 0),
    ("gbench_base.json", "gbench_slower.json", 1),
    ("gbench_base.json", "gbench_missing.json", 1),
    ("replay_base.json", "replay_base.json", 0),
    ("replay_base.json", "replay_new_row.json", 0),
    ("replay_base.json", "replay_slower.json", 1),
    ("replay_base.json", "replay_missing.json", 1),
)


def selfTest():
    bad = 0
    for base, fresh, want in SELF_TEST_CASES:
        got = compareFiles(os.path.join(FIXTURES, base),
                           os.path.join(FIXTURES, fresh), 0.50, "auto",
                           False)
        if got != want:
            print(f"bench-compare self-test: {base} vs {fresh}: exit "
                  f"{got}, expected {want}", file=sys.stderr)
            bad += 1
    if bad:
        print(f"bench-compare self-test: FAILED ({bad} case(s))")
        return 1
    print(f"bench-compare self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh benchmark run against a baseline")
    parser.add_argument("--self-test", action="store_true",
                        help="check the exit status of every fixture "
                             "pair in scripts/bench_compare_fixtures/")
    parser.add_argument("--baseline")
    parser.add_argument("--fresh")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="allowed fractional slowdown "
                             "(default 0.50)")
    parser.add_argument("--format", choices=("auto", "gbench",
                                             "replay"),
                        default="auto")
    parser.add_argument("--allow-missing-baseline",
                        action="store_true",
                        help="warn and exit 0 when the baseline file "
                             "does not exist yet (new benches land "
                             "before their quiet-host baseline does)")
    opts = parser.parse_args()
    if opts.self_test:
        return selfTest()
    if not opts.baseline or not opts.fresh:
        parser.error("--baseline and --fresh are required")
    return compareFiles(opts.baseline, opts.fresh, opts.tolerance,
                        opts.format, opts.allow_missing_baseline)


def compareFiles(baseline, fresh, tolerance, fmt, allow_missing_baseline):
    try:
        base_docs = loadJsonStream(baseline)
    except OSError as e:
        if allow_missing_baseline:
            print(f"bench-compare: WARNING: baseline "
                  f"{baseline} unreadable ({e}); skipping "
                  f"comparison — commit a quiet-host baseline to "
                  f"arm the gate")
            return 0
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2

    try:
        fresh_docs = loadJsonStream(fresh)
    except (OSError, ValueError) as e:
        print(f"bench-compare: {e}", file=sys.stderr)
        return 2

    if fmt == "auto":
        fmt = detectFormat(base_docs)
        if fmt is None or fmt != detectFormat(fresh_docs):
            print("bench-compare: cannot detect a common format; "
                  "pass --format", file=sys.stderr)
            return 2

    print(f"bench-compare: {baseline} vs {fresh} "
          f"[{fmt}, tolerance {tolerance:.0%}]")
    if fmt == "gbench":
        failures = compareGbench(base_docs[0], fresh_docs[0], tolerance)
    else:
        failures = compareReplay(base_docs, fresh_docs, tolerance)
    if failures:
        print(f"bench-compare: FAILED ({len(failures)} regression(s) "
              f"or missing entries)")
        return 1
    print("bench-compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
