"""tools/bench_pairs.py refuses a seed list it could not summarize,
records one Tier-1 run per side and the src/ line count of each, and runs
both sides outside the checkout, the change from a copy of the working
tree."""

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

    def is_parent(tree):
        return os.path.exists(os.path.join(tree, "BASE"))

    def run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            out = "" if cmd[1] in ("status", "ls-files") else "0" * 40
        elif cmd[1:3] == ["-m", "pytest"]:
            tier1.append((cwd, is_parent(cwd), kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0]))
            out = "..F.\n" + ("2 failed, 9 passed, 1 warning in 3.00s" if is_parent(cwd)
                              else "1 failed, 424 passed in 15.00s") + "\n"
        else:
            out = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    def extract(rev, dest):
        open(os.path.join(dest, "BASE"), "w").close()

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    monkeypatch.setattr(bench_pairs, "extract", extract)
    out = tmp_path / "bench.json"
    for seeds, first in (("1-2", "parent"), ("1-3", "change")):
        tier1.clear()
        assert bench_pairs.main(["--seeds", seeds, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())["tier1"]
        assert doc["first"] == first
        assert {side: (doc[side]["passed"], doc[side]["failed"]) for side in ("parent", "change")} == {
            "parent": (9, 2), "change": (424, 1)}
        assert all(doc[side]["wall_s"] >= 0 for side in ("parent", "change"))
        assert [parent for _, parent, _ in tier1] == [first == "parent", first == "change"]
        assert {path for *_, path in tier1} == {"src"}
        assert bench_pairs.ROOT not in {cwd for cwd, *_ in tier1}


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                    *args], cwd=repo, check=True, capture_output=True)


def test_the_change_runs_from_a_copy_of_the_working_tree(tmp_path, monkeypatch):
    # a repository of its own, whose src/ holds an edit made after its one
    # commit and a file not yet added: both reach the change's tree and
    # neither the parent's, and neither side runs in the checkout itself
    bench_pairs = _bench_pairs()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": ["run"], "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}))
    (repo / "src" / "engine.py").write_text("committed\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "engine.py").write_text("edited\n")
    (repo / "src" / "new.py").write_text("added\n")
    seen = []

    def run_once(tree, command, workload, seed, seconds):
        src = os.path.join(tree, "src")
        seen.append((tree, sorted(os.listdir(src)), open(os.path.join(src, "engine.py")).read()))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": 1.0}}

    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "tier1_once", lambda tree: {"wall_s": 0.0, "passed": 0, "failed": 0})
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--seeds", "1-2", "--out", str(out)]) == 0
    parent, change, change_again, parent_again = seen
    assert parent[0] == parent_again[0] and change[0] == change_again[0]
    assert str(repo) not in {parent[0], change[0]} and parent[0] != change[0]
    assert parent[1:] == (["engine.py"], "committed\n")
    assert change[1:] == (["engine.py", "new.py"], "edited\n")
    doc = json.loads(out.read_text())
    assert doc["change_dirty"]
    assert doc["src_lines"] == {"parent": 1, "change": 2}
