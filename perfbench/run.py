"""hyperlie benchmark: one workload, one closed-loop client, one thread.

    python3 perfbench/run.py --workload cli-desk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Set-up builds the workload's fixtures from the seed
(relabelled, checker-validated, written to files) three times and keeps the
last. The run then repeats the workload's fixed job list, one pass after
another, until ``--seconds`` have passed, always finishing the pass it is
in. Every job's result is checked against the facts in ``expected.json``.
With ``--trace 1`` half the time runs untraced passes and one traced pass
follows, giving the per-layer metrics and the tracing overhead.

Times are speed-normalised seconds (see ``speed.py``); the raw seconds and
the measured slowdown are printed on the line before the result. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Spans of a traced run are written
to ``.perfbench/trace-<workload>-<seed>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

from speed import SpeedSampler
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
SETUP_REPEATS = 3
GROUPS = ("check", "relation", "quotient", "analyze", "gen")

def import_package():
    """Import hyperlie from this checkout, or exit 1."""
    if not os.path.isfile(os.path.join(SRC, "hyperlie", "__init__.py")):
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import hyperlie
    import hyperlie.cli  # noqa: F401

    if not os.path.abspath(hyperlie.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hyperlie from {hyperlie.__file__}, not {SRC}")


def setup_fixtures(workload, seed, workdir):
    """Build, validate and write the fixtures; name -> path."""
    import fixtures

    return fixtures.write_fixtures(fixtures.build_fixtures(workload, seed), workdir)


def _commit():
    """HEAD commit of the checkout when it is a git work tree, else unknown."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


class Runner:
    """Runs passes of one workload and checks every job against its facts."""

    def __init__(self, wl, ctx, expected, seed, sampler):
        self.wl = wl
        self.ctx = ctx
        self.expected = expected
        self.seed = seed
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        """One pass of the job list; (group, begin mark, end mark) per job."""
        import hyperlie

        if self.wl.session:
            hyperlie.clear_relation_cache()
            self.ctx.load()
        sampler = self.sampler
        jobs = []
        for job in self.wl.jobs:
            gc.collect()
            if tracer is not None:
                tracer.job = job.name
            self.attempted += 1
            begin = sampler.mark()
            try:
                result = job.call(self.ctx)
                end = sampler.mark()
                ok = self._check(job, result)
            except Exception as e:  # a job that raises is a failed job
                end = sampler.mark()
                log(f"FAIL {job.name}: {type(e).__name__}: {e}")
                ok = False
            self.failed += not ok
            jobs.append((job.group, begin, end))
        return jobs

    def _check(self, job, result):
        got = job.facts(result, self.ctx)
        sha = got.pop("stdout_sha", None)
        want = self.expected.get(job.name)
        if want is None:
            log(f"FAIL {job.name}: no expected facts")
            return False
        if got != want["facts"]:
            log(f"FAIL {job.name}: facts {got} != {want['facts']}")
            return False
        if self.seed == DEFAULT_SEED and want.get("stdout_sha") != sha:
            log(f"FAIL {job.name}: stdout sha256 {sha} != {want.get('stdout_sha')}")
            return False
        return True

    def loop(self, seconds):
        """Untraced passes until `seconds` have passed; at least one."""
        passes = []
        begin = self.sampler.mark()
        while True:
            passes.append(self.run_pass())
            if self.sampler.mark()[0] - begin[0] >= seconds:
                return passes


class Timings:
    """Normalised job times of a run's passes, indexed [pass][job]."""

    def __init__(self, passes, sampler):
        self.groups = [group for group, _, _ in passes[0]]
        self.seconds = [[sampler.normalized(b, e) for _, b, e in p] for p in passes]
        self.raw = [sum(sampler.raw(b, e) for _, b, e in p) for p in passes]

    def job_medians(self, group=None):
        """Median over passes of each job's time, for one group or all."""
        return [statistics.median(p[j] for p in self.seconds)
                for j, g in enumerate(self.groups) if group in (None, g)]

    def wall(self):
        """Time of the fixed job list: the sum of the per-job medians."""
        return sum(self.job_medians())

    def group(self, group):
        return sum(self.job_medians(group))


def hd_median(values):
    """Harrell-Davis estimate of the median.

    A weighted mean of the order statistics, with the weights of a
    Beta((n+1)/2, (n+1)/2) distribution over the ranks. A job list mixes
    commands whose times differ by 20 % or more from one rank to the next,
    so the plain sample median jumps whenever two neighbours swap ranks;
    this estimate moves smoothly instead.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = max(8, 4000 // n)  # midpoint rule per rank interval

    def density(t):
        return math.exp(log_norm + (a - 1) * (math.log(t) + math.log1p(-t)))

    weights = [sum(density((i + (j + 0.5) / steps) / n) for j in range(steps))
               for i in range(n)]
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def _end_to_end(timings, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (timings.wall(), "s"),
        "job_p50_s": (hd_median(timings.job_medians()), "s"),
        "relation_s": (timings.group("relation"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(timings, traced, tracer):
    # span times are raw; scale them by the traced pass's normalisation
    scale = traced.wall() / sum(traced.raw)
    out = {}
    for name, value in tracer.metrics().items():
        if name.endswith("_s"):
            out[name] = (value * scale, "s")
        else:
            out[name] = (value, "ratio" if name.endswith("ratio") else "count")
    for group in GROUPS:
        out[f"jobs.{group}_s"] = (timings.group(group), "s")
    out["trace.wall_s"] = (traced.wall(), "s")
    out["trace.untraced_wall_s"] = (timings.wall(), "s")
    out["trace.overhead_ratio"] = (traced.wall() / timings.wall(), "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sampler = SpeedSampler()
    sampler.start()
    traced = tracer = None
    try:
        begin = sampler.mark()
        import_package()
        import_marks = (begin, sampler.mark())
        import workloads

        if args.workload not in workloads.WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                begin = sampler.mark()
                paths = setup_fixtures(args.workload, args.seed, workdir)
                setups.append((begin, sampler.mark()))

            with open(EXPECTED, encoding="utf-8") as fh:
                expected = json.load(fh)[args.workload]
            runner = Runner(workloads.workload(args.workload),
                            workloads.Context(paths, workdir),
                            expected, args.seed, sampler)
            run_begin = sampler.mark()
            if not args.trace:
                passes = runner.loop(args.seconds)
            else:
                passes = runner.loop(args.seconds / 2)
                tracer = Tracer(sampler.clock)
                tracer.install()
                try:
                    traced = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
            run_end = sampler.mark()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        sampler.stop()

    setup_s = (sampler.normalized(*import_marks)
               + statistics.median(sampler.normalized(b, e) for b, e in setups))
    timings = Timings(passes, sampler)
    if tracer is None:
        metrics = _end_to_end(timings, setup_s)
    else:
        if tracer.absent:
            log(f"absent layer functions, reported as 0: {', '.join(tracer.absent)}")
        metrics = _per_layer(timings, Timings([traced], sampler), tracer)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)

    print(f"# perfbench workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"raw_wall_s={statistics.median(timings.raw):.4f} "
          f"slowdown={sampler.slowdown(run_begin, run_end):.3f} "
          f"python={platform.python_version()} nproc={os.cpu_count()} commit={_commit()}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
