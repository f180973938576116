#!/usr/bin/env python3
"""Compare perfbench on two commits in alternating pairs.

``--base`` and ``HEAD`` are exported with ``git archive`` into a
temporary directory (``$TMPDIR``) and built there. Then, per workload of
``BENCHMARK.json``, the benchmark's own ``command`` runs five times on
each commit, base and head alternating which goes first, with seed
``i + 1`` for pair ``i`` and ``run_seconds`` of timed window each. The gate fails when, on any
workload:

- head's median of an end-to-end metric is worse than base's median by
  more than that metric's ``bound`` (a relative bound, in the direction
  of the metric's ``better``);
- any head run reports ``correct = false`` or prints no result;
- head's runs report more ``failed`` operations than base's.

Usage::

    python3 scripts/perf_pairs.py --base origin/main

Exit status: 0 when every gate passes, 1 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# Base/head pairs per workload.
PAIRS = 5


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def export(rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def build_command(command):
    """`cargo run ... --` becomes `cargo build ...`, so that no timed run
    pays for compilation."""
    if command[:2] != ["cargo", "run"]:
        return None
    args = command[2:]
    if "--" in args:
        args = args[: args.index("--")]
    return ["cargo", "build", *args]


def run_once(command, cwd, workload, seed, seconds):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def worse_by(metric, base, head):
    """Relative change of `head` against `base` in the direction that is
    worse for `metric`; negative means better."""
    sign = 1 if metric["better"] == "lower" else -1
    if base == 0:
        return 0.0 if head == 0 else sign * math.copysign(math.inf, head)
    return sign * (head - base) / abs(base)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--base", required=True, help="base commit (e.g. the PR's target branch)")
    args = ap.parse_args()

    sides = {"base": git("rev-parse", args.base).strip(),
             "head": git("rev-parse", "HEAD").strip()}
    bench = json.loads(git("show", f"{sides['head']}:BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workdir = tempfile.mkdtemp(prefix="perf_pairs.")
    try:
        return compare(bench, sides, workdir, seconds)
    finally:
        shutil.rmtree(workdir)


def compare(bench, sides, workdir, seconds):
    dirs = {}
    for side, rev in sides.items():
        dirs[side] = os.path.join(workdir, side)
        print(f"{side}: {rev} -> {dirs[side]}", flush=True)
        export(rev, dirs[side])
        build = build_command(bench["command"])
        if build:
            subprocess.run(build, cwd=dirs[side], check=True)

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "head": []}
        for i in range(PAIRS):
            seed = i + 1
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(bench["command"], dirs[side], workload, seed, seconds)
                runs[side].append(result)
                status = "no result" if result is None else (
                    f"correct={result['correct']} failed={result['failed']} "
                    f"routines_per_s={result['metrics']['routines_per_s']['value']:.0f}")
                print(f"{workload} pair {i} seed {seed} {side}: {status}", flush=True)

        if any(r is None or r["correct"] is not True for r in runs["head"]):
            failures.append(f"{workload}: a head run is incorrect or printed no result")
        done = {side: [r for r in rs if r is not None] for side, rs in runs.items()}
        failed = {side: sum(r["failed"] for r in rs) for side, rs in done.items()}
        if failed["head"] > failed["base"]:
            failures.append(
                f"{workload}: head failed {failed['head']} operations, base {failed['base']}")
        if not done["base"] or not done["head"]:
            failures.append(f"{workload}: no result to compare")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            med = {side: statistics.median(r["metrics"][name]["value"] for r in rs)
                   for side, rs in done.items()}
            worse = worse_by(metric, med["base"], med["head"])
            verdict = "ok" if worse <= metric["bound"] else "WORSE"
            print(f"{workload:<20} {name:<20} base {med['base']:>12.4g} "
                  f"head {med['head']:>12.4g}  worse by {worse:+.1%} "
                  f"(bound {metric['bound']:.0%})  {verdict}")
            if verdict != "ok":
                failures.append(
                    f"{workload}: {name} median {med['head']:.4g} vs base {med['base']:.4g} "
                    f"is worse by {worse:.1%} > bound {metric['bound']:.0%}")

    if failures:
        print("\n" + "\n".join(f"FAIL: {f}" for f in failures), file=sys.stderr)
        return 1
    print(f"\nall perf pairs within bounds ({PAIRS} pairs, {seconds:g} s per run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
