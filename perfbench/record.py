"""Record the facts every benchmark job must reproduce into expected.json.

    python3 perfbench/record.py [workload ...]

Runs one pass of each named workload (all by default) at the default seed
and stores, per job, its relabelling-invariant facts and the sha256 of its
``--json`` standard output. It runs the pass again at a second seed and
refuses to record if any fact differs, since the facts must not depend on
the seed. Record on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import DEFAULT_SEED, EXPECTED, OUT_DIR, import_package, setup_fixtures


def one_pass(name, seed):
    import hyperlie
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"record-{name}-", dir=OUT_DIR)
    try:
        paths = setup_fixtures(name, seed, workdir)
        wl = workloads.workload(name)
        ctx = workloads.Context(paths, workdir)
        if wl.session:
            hyperlie.clear_relation_cache()
            ctx.load()
        out = {}
        for job in wl.jobs:
            if job.name in out:
                raise SystemExit(f"duplicate job name {job.name!r} in {name}")
            facts = job.facts(job.call(ctx), ctx)
            sha = facts.pop("stdout_sha", None)
            out[job.name] = {"facts": facts}
            if sha is not None:
                out[job.name]["stdout_sha"] = sha
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv):
    import_package()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    recorded = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            recorded = json.load(fh)
    for name in names:
        base = one_pass(name, DEFAULT_SEED)
        other = one_pass(name, DEFAULT_SEED + 1)
        for job, entry in base.items():
            if other[job]["facts"] != entry["facts"]:
                raise SystemExit(f"{name} / {job}: facts depend on the seed:\n"
                                 f"  {entry['facts']}\n  {other[job]['facts']}")
        recorded[name] = base
        print(f"{name}: {len(base)} jobs")
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
