#!/usr/bin/env python3
"""A/B the replay benchmark: a base revision against a change.

    python3 scripts/ab_bench.py --base REV [--change REV] [--pairs N]
        [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]
        [--workdir DIR]
    python3 scripts/ab_bench.py --self-test

Run from anywhere inside a checkout. The base revision is exported with
``git archive`` into DIR/base; the change is either a revision exported
the same way or, by default, the working tree as it stands, run in
place. Each side runs its own, unchanged ``perfbench/run.py`` with its
own ``CARGO_TARGET_DIR`` (DIR/base-build, DIR/change-build), so the two
builds never share an object file. One discarded warm-up run per side
and workload does the build.

Then N pairs per workload run in alternating order: odd pairs run the
base first, even pairs the change first, so slow drift on a shared host
falls on both sides alike. For every metric both sides report, one line
gives the median and quartiles of each side, the median ratio
change/base, how many pairs the change won (by the metric's ``better``
direction in BENCHMARK.json) and whether the gap between the medians
exceeds the base's interquartile range (``gap>IQR``). A gain is claimable
only when the change wins nearly every pair and ``gap>IQR`` holds.

The model metrics ``hit_ratio`` and ``alloc_writes_per_access`` must be
identical between the two runs of every pair: a speed change must not
move the model. Exit status: 0 when every run passed its correctness
gate and the model metrics match; 1 when a run failed or a model metric
differs; 2 on a usage error.

``--self-test`` checks the summary and the exit status on canned result
lines, without building anything.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_METRICS = ("hit_ratio", "alloc_writes_per_access")
RUN_TIMEOUT_S = 1200  # run.py's own build and run limits are below


def repo_root():
    done = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          cwd=HERE, capture_output=True, text=True,
                          check=True)
    return done.stdout.strip()


def export_rev(root, rev, dest):
    """Write the files of `rev` into `dest` (no worktree is registered)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = os.path.join(os.path.dirname(dest), "export.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", archive, rev],
                   cwd=root, check=True)
    # The "data" filter (Python 3.11.4+) keeps the archive's members
    # inside `dest`; older interpreters extract as before.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(archive) as tar:
        tar.extractall(dest, **safe)
    os.remove(archive)


def load_directions(root):
    """Metric name -> 'higher' / 'lower', from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {}
    for key in ("end_to_end", "per_layer"):
        for m in spec.get(key, []):
            better[m["name"]] = m["better"]
    return spec, better


def parse_result(stdout):
    """The JSON object on the last non-empty stdout line, or None."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_side(checkout, build_dir, workload, seed, seconds, trace):
    """One perfbench run; returns (result dict or None, message)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", trace]
    try:
        done = subprocess.run(cmd, cwd=checkout, env=env,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    result = parse_result(done.stdout)
    if done.returncode != 0 or result is None:
        tail = "\n".join(done.stderr.splitlines()[-5:])
        return None, "exit %d\n%s" % (done.returncode, tail)
    return result, ""


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better):
    """Rows for every metric in both sides of every pair.

    `pairs` is a list of (base result, change result). Returns
    (rows, model_mismatches), where each row is a dict and each
    mismatch is a (pair index, metric, base, change) tuple.
    """
    base_vals = [values(b) for b, _ in pairs]
    change_vals = [values(c) for _, c in pairs]
    names = [n for n in base_vals[0]
             if all(n in v for v in base_vals + change_vals)]
    mismatches = []
    for i, (b, c) in enumerate(zip(base_vals, change_vals)):
        for name in MODEL_METRICS:
            if name in b and name in c and b[name] != c[name]:
                mismatches.append((i + 1, name, b[name], c[name]))
    rows = []
    for name in names:
        bs = [v[name] for v in base_vals]
        cs = [v[name] for v in change_vals]
        bq1, bmed, bq3 = quartiles(bs)
        cq1, cmed, cq3 = quartiles(cs)
        direction = better.get(name)
        if direction == "higher":
            wins = sum(c > b for b, c in zip(bs, cs))
        elif direction == "lower":
            wins = sum(c < b for b, c in zip(bs, cs))
        else:
            wins = None
        rows.append({
            "metric": name, "better": direction,
            "base": (bq1, bmed, bq3), "change": (cq1, cmed, cq3),
            "ratio": cmed / bmed if bmed else None,
            "wins": wins, "pairs": len(pairs),
            "gap_exceeds_iqr": abs(cmed - bmed) > (bq3 - bq1),
        })
    return rows, mismatches


def fmt(x):
    if abs(x) >= 1e6:
        return "%.3fM" % (x / 1e6)
    if abs(x) >= 1e4:
        return "%.1fk" % (x / 1e3)
    return "%.4g" % x


def print_rows(workload, rows, out):
    out.write("== %s\n" % workload)
    out.write("%-36s %-28s %-28s %7s %6s %s\n" % (
        "metric", "base q1/med/q3", "change q1/med/q3", "ratio", "wins",
        "gap>IQR"))
    for r in rows:
        wins = "-" if r["wins"] is None else "%d/%d" % (r["wins"],
                                                         r["pairs"])
        out.write("%-36s %-28s %-28s %7s %6s %s\n" % (
            r["metric"], "/".join(fmt(x) for x in r["base"]),
            "/".join(fmt(x) for x in r["change"]),
            "-" if r["ratio"] is None else "%.3f" % r["ratio"], wins,
            "yes" if r["gap_exceeds_iqr"] else "no"))


def report(workload, pairs, failures, better, out):
    """Print one workload's summary; returns True when it is clean."""
    ok = True
    for msg in failures:
        out.write("FAILED RUN %s: %s\n" % (workload, msg))
        ok = False
    good = [(b, c) for b, c in pairs
            if b.get("correct") and c.get("correct")
            and not b.get("failed") and not c.get("failed")]
    if len(good) != len(pairs):
        out.write("FAILED %s: %d run pair(s) failed the correctness "
                  "gate\n" % (workload, len(pairs) - len(good)))
        ok = False
    if not good:
        return False
    rows, mismatches = summarize(good, better)
    print_rows(workload, rows, out)
    for pair, name, b, c in mismatches:
        out.write("MODEL MISMATCH %s pair %d: %s base %r change %r\n" % (
            workload, pair, name, b, c))
        ok = False
    return ok


def ab(args):
    root = repo_root()
    spec, better = load_directions(root)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    workdir = args.workdir or tempfile.mkdtemp(prefix="ab_bench-")
    os.makedirs(workdir, exist_ok=True)
    workdir = os.path.abspath(workdir)
    base_dir = os.path.join(workdir, "base")
    export_rev(root, args.base, base_dir)
    if args.change:
        change_dir = os.path.join(workdir, "change")
        export_rev(root, args.change, change_dir)
    else:
        change_dir = root
    sides = {
        "base": (base_dir, os.path.join(workdir, "base-build")),
        "change": (change_dir, os.path.join(workdir, "change-build")),
    }
    ok = True
    try:
        for workload in workloads:
            failures = []
            for name, (checkout, build) in sides.items():
                _, msg = run_side(checkout, build, workload, args.seed,
                                  1.0, args.trace)
                if msg:
                    failures.append("%s warm-up: %s" % (name, msg))
            pairs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else \
                    ("change", "base")
                got = {}
                for name in order:
                    checkout, build = sides[name]
                    got[name], msg = run_side(checkout, build, workload,
                                              args.seed, args.seconds,
                                              args.trace)
                    if msg:
                        failures.append("%s pair %d: %s" % (name, i + 1,
                                                            msg))
                if got["base"] and got["change"]:
                    pairs.append((got["base"], got["change"]))
                sys.stderr.write("ab_bench: %s pair %d/%d done\n" % (
                    workload, i + 1, args.pairs))
            ok = report(workload, pairs, failures, better,
                        sys.stdout) and ok
            sys.stdout.flush()
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


# ---- self-test ------------------------------------------------------

def canned(rps, hit=0.25, alloc=0.0014, correct=True, failed=0):
    line = json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {
            "replay_rps": {"value": rps, "unit": "req/s"},
            "batch_p99_us": {"value": 1e8 / rps, "unit": "us"},
            "hit_ratio": {"value": hit, "unit": "fraction"},
            "alloc_writes_per_access": {"value": alloc,
                                        "unit": "blocks/access"},
        }})
    return parse_result("build noise\n" + line + "\n")


def self_test():
    import io
    better = {"replay_rps": "higher", "batch_p99_us": "lower",
              "hit_ratio": "higher", "alloc_writes_per_access": "lower"}
    base = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 100.0,
            97.0, 101.0]
    checks = []

    def case(label, pairs, failures, want_ok, want=None):
        out = io.StringIO()
        got = report("w", pairs, failures, better, out)
        passed = got == want_ok and (want is None or want(out.getvalue()))
        checks.append((label, passed, out.getvalue()))

    faster = [(canned(b), canned(b * 1.2)) for b in base]
    rows, _ = summarize(faster, better)
    rps = next(r for r in rows if r["metric"] == "replay_rps")
    p99 = next(r for r in rows if r["metric"] == "batch_p99_us")
    checks.append(("faster change wins every pair",
                   rps["wins"] == 10 and rps["gap_exceeds_iqr"]
                   and abs(rps["ratio"] - 1.2) < 1e-9
                   and p99["wins"] == 10, repr(rps)))
    same = [(canned(b), canned(b2))
            for b, b2 in zip(base, base[1:] + base[:1])]
    rows, _ = summarize(same, better)
    rps = next(r for r in rows if r["metric"] == "replay_rps")
    checks.append(("noise is not a gain", not rps["gap_exceeds_iqr"],
                   repr(rps)))
    checks.append(("quartiles of one run", quartiles([5.0]) ==
                   (5.0, 5.0, 5.0), ""))
    case("identical model metrics pass", faster, [], True,
         lambda s: "replay_rps" in s and "10/10" in s)
    moved = list(faster)
    moved[3] = (canned(base[3]), canned(base[3], hit=0.2501))
    case("a moved hit_ratio fails", moved, [], False,
         lambda s: "MODEL MISMATCH w pair 4: hit_ratio" in s)
    moved = list(faster)
    moved[0] = (canned(base[0]), canned(base[0], alloc=0.0015))
    case("a moved alloc_writes_per_access fails", moved, [], False,
         lambda s: "alloc_writes_per_access" in s)
    gate = list(faster)
    gate[1] = (canned(base[1]), canned(base[1], correct=False))
    case("a failed correctness gate fails", gate, [], False,
         lambda s: "correctness gate" in s)
    gate[1] = (canned(base[1]), canned(base[1], failed=2))
    case("failed operations fail", gate, [], False)
    case("a run that produced no result fails", faster[:9],
         ["change pair 10: exit 1"], False,
         lambda s: "FAILED RUN" in s)
    case("no usable pair fails", [], ["base warm-up: exit 1"], False)
    checks.append(("unparsable output", parse_result("oops\n") is None
                   and parse_result("") is None, ""))

    failed = [c for c in checks if not c[1]]
    for label, passed, detail in checks:
        print("%s %s" % ("ok  " if passed else "FAIL", label))
        if not passed:
            print(detail)
    print("ab_bench self-test: %d/%d passed" % (len(checks) - len(failed),
                                                len(checks)))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--base", help="base revision (e.g. HEAD~1)")
    parser.add_argument("--change",
                        help="change revision (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--workdir",
                        help="kept checkouts and builds (default: a "
                             "temporary directory, removed at exit)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or args.pairs < 1:
        parser.print_usage(sys.stderr)
        sys.stderr.write("ab_bench: --base and --pairs >= 1 required\n")
        return 2
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
