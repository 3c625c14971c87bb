"""tools/bench_pairs.py refuses a seed list it could not summarize."""

import importlib.util
import os

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
