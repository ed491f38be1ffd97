#!/usr/bin/env python3
"""Alternating parent/change A/B of pipebench on one workload and seed.

Run from the repository root:

    python3 tools/pipebench_ab.py --parent REV --workload sweep --seed 2 \
        --pairs 10 [--trace 0|1]

The parent side is a `git archive` snapshot of REV in
.bench_build/ab/parent-src, re-extracted only when REV moves; the change
side is the working tree, uncommitted edits included. `git archive`
stamps every file with REV's commit time, so after a newer REV the
sources of an older one look older than the objects built from the
newer: make would rebuild nothing and run the old snapshot's code. A
re-extraction therefore also deletes the parent's build directory, and
the parent is built from scratch. Each side builds
with its own pipebench/run.py into its own CARGO_TARGET_DIR,
.bench_build/ab/parent or .bench_build/ab/change, so neither rebuilds
the other's objects. Both sides must carry the same pipebench/ and
BENCHMARK.json, or the runs would not compare one benchmark. Every run
lasts BENCHMARK.json's run_seconds (30 s), the length the benchmark is
judged at: a shorter `serve` run makes too few sweep requests for its
tail percentile to reach them.

Pair i runs the parent first when i is even and the change first when i
is odd. For each metric it prints the parent's median and quartiles, the
change's median, the ratio of the medians change/parent, the median and
quartiles of the per-pair ratios change/parent (pairing cancels drift
slower than a pair, so their spread in an A/A run is the noise floor a
claimed ratio is read against), the pairs the change won (ties count for
neither) and a verdict by the rules for claiming a gain:

  gain          the change won at least 9 of 10 pairs and the medians
                differ, in the better direction, by more than the
                parent's interquartile range
  within bound  an end-to-end metric whose change median is no worse
                than the parent's by more than its BENCHMARK.json bound
  WORSE         an end-to-end metric worse than its bound
  unresolved    the parent's interquartile range is wider than the
                bound (and not every change run beats every parent run),
                or, for a per-layer metric, no gain and no loss
  loss          a per-layer metric the parent won by the gain rule
  equal         every run of both sides gave the same value

It prints failed/attempted for each side and exits 1 if any run is not
`correct` or reports a failure, 2 on a usage or build error. There is no
timing gate. Every run's JSON result is kept in
.bench_build/ab/<workload>-seed<seed>.json.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB = os.path.join(ROOT, ".bench_build", "ab")


def git(*args, check=True, text=False):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=check,
                          capture_output=True, text=text)


def parent_tree(rev, build):
    """Extracts `rev` into AB/parent-src unless it already holds it; a
    new extraction deletes `build`, the parent's build directory."""
    sha = git("rev-parse", "--verify", rev + "^{commit}", text=True).stdout.strip()
    src = os.path.join(AB, "parent-src")
    stamp = os.path.join(AB, "parent-src.rev")
    if os.path.isfile(stamp) and open(stamp).read().strip() == sha:
        print("pipebench_ab: parent %s (snapshot and build kept)" % sha,
              file=sys.stderr, flush=True)
        return src, sha
    print("pipebench_ab: parent %s: extracting and building from scratch" % sha,
          file=sys.stderr, flush=True)
    for d in (src, build):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(src)
    archive = git("archive", "--format=tar", sha).stdout
    subprocess.run(["tar", "-x", "-C", src], input=archive, check=True)
    with open(stamp, "w") as f:
        f.write(sha + "\n")
    return src, sha


def run_once(tree, target, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Keep pipebench's commit lookup inside the snapshot, which has no
    # .git: without this it would find and report this repository's HEAD.
    env["GIT_CEILING_DIRECTORIES"] = AB
    cmd = [sys.executable, os.path.join(tree, "pipebench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:] + p.stdout[-2000:])
        print("pipebench_ab: no JSON result from %s (exit %d)" % (tree, p.returncode),
              file=sys.stderr)
        raise SystemExit(2)
    result["exit"] = p.returncode
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent, change, better, bound):
    """Returns (pairs the change won, verdict) for one metric."""
    sign = 1 if better == "higher" else -1  # sign * (x - y) > 0: x is better
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    if set(parent) == set(change) and len(set(parent)) == 1:
        return wins, "equal"
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    if 10 * wins >= 9 * n and sign * (cm - pm) > iqr:
        return wins, "gain"
    if bound is None:
        lost = 10 * losses >= 9 * n and sign * (pm - cm) > iqr
        return wins, "loss" if lost else "unresolved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and iqr / abs(pm) > bound and not all_better:
        return wins, "unresolved"
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    return wins, "within bound" if worse <= bound else "WORSE"


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True, choices=["generate", "sweep", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    if git("diff", "--quiet", args.parent, "--", "pipebench", "BENCHMARK.json",
           check=False).returncode != 0:
        print("pipebench_ab: pipebench/ or BENCHMARK.json differs from %s (or %s "
              "is not a revision); the two sides would not run the same benchmark"
              % (args.parent, args.parent), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"), m["unit"])
            for m in bench["end_to_end"] + bench["per_layer"]}

    os.makedirs(AB, exist_ok=True)
    try:
        ptree, sha = parent_tree(args.parent, os.path.join(AB, "parent"))
    except subprocess.CalledProcessError as e:
        print("pipebench_ab: cannot extract %s: %s" % (args.parent, e.stderr),
              file=sys.stderr)
        return 2
    sides = {"parent": (ptree, os.path.join(AB, "parent")),
             "change": (ROOT, os.path.join(AB, "change"))}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            tree, target = sides[side]
            r = run_once(tree, target, args.workload, args.seed, bench["run_seconds"],
                         args.trace)
            runs[side].append(r)
            wps = r["metrics"].get("work_per_s", {}).get("value", float("nan"))
            print("pair %d %s: work_per_s %s correct %s failed %d/%d"
                  % (i + 1, side, fmt(wps), r["correct"], r["failed"], r["attempted"]),
                  file=sys.stderr, flush=True)

    out = os.path.join(AB, "%s-seed%d.json" % (args.workload, args.seed))
    with open(out, "w") as f:
        json.dump({"parent": sha, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "runs": runs}, f)

    print("%s seed %d, %d pairs of %g s runs, --trace %d: parent %s vs working tree"
          % (args.workload, args.seed, args.pairs, bench["run_seconds"], args.trace,
             sha[:12]))
    print("%-36s %-34s %-11s %-7s %-24s %-6s %s"
          % ("metric", "parent median [q1-q3]", "change", "ratio",
             "pair ratio median [q1-q3]", "wins", "verdict"))
    names = [n for n in spec if all(n in r["metrics"] for side in runs for r in runs[side])]
    for name in names:
        better, bound, unit = spec[name]
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        wins, verdict = compare(p, c, better, bound)
        ratios = [ci / pi for pi, ci in zip(p, c) if pi]
        if ratios:
            r1, r3 = quartiles(ratios)
            pair = "%s [%s-%s]" % (fmt(statistics.median(ratios)), fmt(r1), fmt(r3))
        else:
            pair = "-"
        print("%-36s %-34s %-11s %-7s %-24s %-6s %s"
              % ("%s (%s)" % (name, unit), "%s [%s-%s]" % (fmt(pm), fmt(q1), fmt(q3)),
                 fmt(cm), fmt(cm / pm) if pm else "-", pair,
                 "%d/%d" % (wins, args.pairs), verdict))
    bad = 0
    for side in ("parent", "change"):
        att = sum(r["attempted"] for r in runs[side])
        fail = sum(r["failed"] for r in runs[side])
        wrong = sum(1 for r in runs[side] if not r["correct"] or r["exit"] != 0)
        bad += fail + wrong
        print("%s: failed/attempted %d/%d, runs not correct %d" % (side, fail, att, wrong))
    print("runs: " + os.path.relpath(out, ROOT))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
