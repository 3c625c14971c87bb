"""tools/bench_pairs.py refuses a seed list it could not summarize, and
records one Tier-1 run per side."""

import importlib.util
import json
import os
import subprocess

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seeds", ["5", "3-1"])
def test_fewer_than_two_seeds_refused_before_any_run(seeds, tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()

    def run_once(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err
    assert not out.exists()


def test_one_tier1_run_per_side_in_the_next_pairs_order(tmp_path, monkeypatch):
    # every process is faked: git, perfbench/run.py and the Tier-1 pytest
    bench_pairs = _bench_pairs()
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: {"value": 1.0} for m in json.load(fh)["end_to_end"]}
    tier1 = []

    def run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            out = "" if cmd[1] in ("status", "ls-files") else "0" * 40
        elif cmd[1:3] == ["-m", "pytest"]:
            tier1.append((cwd, kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0]))
            out = "..F.\n" + ("1 failed, 424 passed in 15.00s" if cwd == bench_pairs.ROOT
                              else "2 failed, 9 passed, 1 warning in 3.00s") + "\n"
        else:
            out = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: None)
    out = tmp_path / "bench.json"
    for seeds, first in (("1-2", "parent"), ("1-3", "change")):
        tier1.clear()
        assert bench_pairs.main(["--seeds", seeds, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["tier1"]
        assert doc["first"] == first
        assert {side: (doc[side]["passed"], doc[side]["failed"]) for side in ("parent", "change")} == {
            "parent": (9, 2), "change": (424, 1)}
        assert all(doc[side]["wall_s"] >= 0 for side in ("parent", "change"))
        assert [cwd == bench_pairs.ROOT for cwd, _ in tier1] == [first == "change", first == "parent"]
        assert {path for _, path in tier1} == {"src"}
