"""Paired benchmark runs of a base commit and the working tree.

    python3 tools/bench_pairs.py --base <rev> --seeds 1-10 --out BENCH_<n>.json

Run from the root of a git checkout. The base commit's files are extracted
with ``git archive`` into a temporary directory, and the files of the
working tree that git tracks or would track are copied, as they are, into a
second one, so each side runs its own ``perfbench/`` on its own ``src/``
from a fresh directory of its own. For every workload in BENCHMARK.json and
every seed, the tool runs ``perfbench/run.py`` (untraced, for the
benchmark's ``run_seconds``) once on each side, alternating which side
goes first, one process at a time. After a workload's pairs it runs one
traced pass (``--trace 1``) on each side at the first seed and records
each side's ``*.self_s`` and ``*.pairs`` layer metrics under ``layers``,
as ``{workload: {metric: {parent, change}}}``, so that a saving can be
located in a layer. It then runs the Tier-1 tests once on each side, in
the order the next seed would take (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on PYTHONPATH), and
records their wall seconds and passed and failed counts under ``tier1``.
Next to it, ``src_lines`` holds each side's line count of every ``.py``
file under its own ``src/``, the size measure the roadmap tracks.

The output holds, per workload and end-to-end metric, each side's median
and quartiles, the parent IQR, the number of pairs the change won (ties
count for neither), whether that is a gain (the change wins at least nine
tenths of the pairs and the medians differ by more than the parent IQR)
and whether the change's median is within the metric's bound of the
parent's. It also records every run, the seeds, the Python version, nproc
and both commits, with a digest of the working tree's files under src/ and
perfbench/ (change_src_sha256), so that a file recorded before a commit can
be matched to the source that was committed. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """The committed files of rev, written under dest."""
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest)


def worktree_files(*dirs):
    """Sorted paths of the files under dirs (the whole tree if none) that
    git tracks or would track and that the working tree holds."""
    paths = git("ls-files", "-z", "-co", "--exclude-standard", "--", *dirs).split("\0")
    return sorted(path for path in paths if path and os.path.isfile(os.path.join(ROOT, path)))


def copy_worktree(dest: str) -> None:
    """The working tree's files that git tracks or would track, as they
    are, copied under dest."""
    for path in worktree_files():
        os.makedirs(os.path.dirname(os.path.join(dest, path)), exist_ok=True)
        shutil.copy2(os.path.join(ROOT, path), os.path.join(dest, path))


def source_digest(*dirs) -> str:
    """sha256 over the path and bytes of every file under dirs that git
    tracks or would track, as they are in the working tree."""
    digest = hashlib.sha256()
    for path in worktree_files(*dirs):
        with open(os.path.join(ROOT, path), "rb") as fh:
            data = fh.read()
        digest.update(f"{path}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def src_lines(tree: str) -> int:
    """Newlines in every .py file under tree's src/, as wc -l counts them."""
    total = 0
    for folder, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def parse_seeds(text: str):
    """'1-10' or '3,5,8' -> list of ints; fewer than two are refused, as
    the quartiles of each side need at least two runs."""
    if "-" in text:
        lo, hi = text.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least two seeds, got {text!r}")
    return seeds


def run_once(tree: str, command, workload: str, seed: int, seconds: float, trace: int = 0):
    """The result object of one benchmark run in tree, traced if trace is 1."""
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def tier1_once(tree: str):
    """Wall seconds and passed and failed counts of one Tier-1 run in tree;
    failing tests do not stop the benchmark."""
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=tree, env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True).stdout
    wall = time.perf_counter() - start
    summary = out.rstrip().rpartition("\n")[2]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


def sides_in_order(i: int):
    """Which side runs first in pair number i: the parent on even i."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def summarize(metric, pairs):
    """Medians, quartiles, wins and verdicts of one metric over the pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    bq, cq = (statistics.quantiles(xs, n=4, method="inclusive") for xs in (base, change))
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    iqr = bq[2] - bq[0]
    delta = cq[1] - bq[1]
    worse = delta if lower else -delta
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_median": bq[1],
        "change_median": cq[1],
        "parent_quartiles": [bq[0], bq[2]],
        "change_quartiles": [cq[0], cq[2]],
        "parent_iqr": iqr,
        "change_vs_parent": cq[1] / bq[1] - 1 if bq[1] else None,
        "change_wins": wins,
        "pairs": len(pairs),
        "gain": wins * 10 >= 9 * len(pairs) and -worse > iqr,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"] * bq[1],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare with (default HEAD)")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds,
                    help="'1-10' or '3,5,8', at least two (default 1-10)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", args.base)
    doc = {
        "base_commit": base_commit,
        "change_commit": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "change_src_sha256": source_digest("src", "perfbench"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "seeds": args.seeds,
        "quartile_method": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
        "layers": {},
    }
    with (tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree):
        extract(base_commit, base_tree)
        copy_worktree(change_tree)
        trees = {"parent": base_tree, "change": change_tree}
        doc["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = sides_in_order(i)
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], bench["command"], workload, seed, seconds)
                    print(f"{workload} seed={seed} {side}: "
                          f"wall_s={pair[side]['metrics']['wall_s']:.4f} "
                          f"failed={pair[side]['failed']}", file=sys.stderr, flush=True)
                pairs.append(pair)
            doc["workloads"][workload] = {
                "metrics": {m["name"]: summarize(m, pairs) for m in bench["end_to_end"]},
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in trees},
                "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in trees},
                "runs": pairs,
            }
            traced = {side: run_once(trees[side], bench["command"], workload, args.seeds[0],
                                     seconds, trace=1)["metrics"] for side in sides_in_order(0)}
            names = sorted({name for metrics in traced.values() for name in metrics
                            if name.endswith((".self_s", ".pairs"))})
            doc["layers"][workload] = {name: {side: traced[side].get(name) for side in trees}
                                       for name in names}
        order = sides_in_order(len(args.seeds))
        doc["tier1"] = {"first": order[0]}
        for side in order:
            run = doc["tier1"][side] = tier1_once(trees[side])
            print(f"tier1 {side}: wall_s={run['wall_s']:.1f} passed={run['passed']} "
                  f"failed={run['failed']}", file=sys.stderr, flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
