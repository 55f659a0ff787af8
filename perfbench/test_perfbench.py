"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gen     # noqa: E402
import spans   # noqa: E402
from homcat.cli import Workspace, parse   # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    first = [(t.name, t.source, t.argv()) for t in gen.generate(workload, 7)]
    again = [(t.name, t.source, t.argv()) for t in gen.generate(workload, 7)]
    assert first == again
    other = [(t.name, t.source, t.argv()) for t in gen.generate(workload, 8)]
    assert other != first


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_file_parses_and_certifies(workload):
    tasks = gen.generate(workload, 0)
    assert len(tasks) > 10          # the tail percentile needs ten tasks beyond it
    for task in tasks:
        ws = Workspace(parse(task.source))
        assert len(ws.tasks) == 1, task.name


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seeds_share_the_task_kinds(workload):
    def kinds(seed):
        return sorted((t.name.rsplit("-", 1)[0], t.max_degree, t.oracle)
                      for t in gen.generate(workload, seed))
    assert kinds(7) == kinds(8)


def test_unbalanced_family_is_refused():
    with pytest.raises(ValueError):
        gen.balanced(gen.random.Random(0), (3, 4), 5)


def test_known_tables():
    assert gen.dual_table(4) == [2, 1, 1, 1, 1]
    assert gen.linear_table(3) == [1, 0, 0, 0]
    assert gen.kronecker_table(4) == [1, 3, 0, 0, 0]
    assert gen.kronecker_family(2, 1) == [1, 0, 0]


def run_worker(tmp_path, manifest, trace):
    out = tmp_path / f"pass-{trace}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(manifest), str(out)]
    if trace:
        cmd += ["--trace", str(tmp_path / "spans.json")]
    subprocess.run(cmd, check=True, timeout=120,
                   env={"PYTHONPATH": str(SRC), "PATH": ""})
    return json.loads(out.read_text())


def test_traced_pass_matches_untraced(tmp_path):
    source = gen.cohomology_task(gen.dual_numbers("Q"))
    (tmp_path / "dual.kcat").write_text(source)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"tasks": [
        {"file": "dual.kcat", "max_degree": 3, "oracle": False, "expect_hc": None}]}))
    plain = run_worker(tmp_path, manifest, False)
    traced = run_worker(tmp_path, manifest, True)
    assert plain["tasks"][0]["hc"] == [gen.dual_table(3)]
    assert traced["tasks"][0]["digest"] == plain["tasks"][0]["digest"]
    layers = traced["layers"]
    assert traced["missing"] == []
    # the unnormalized cochains of K[x]/(x^2) have dimension 2^(n+1) in degree n
    assert layers["hochschild.cochain_dim_sum"] == 2 + 4 + 8 + 16 + 32
    assert layers["exactla.rref_calls"] > 0 and layers["exactla.rref_s"] > 0
    assert layers["modcat.resolution_calls"] == 0
    records = json.loads((tmp_path / "spans.json").read_text())
    names = {r[0] for r in records}
    assert {"task", "cli.parse_s", "hochschild.cochain_s", "exactla.rref_s"} <= names
    roots = [r for r in records if r[3] == -1]
    assert [r[0] for r in roots] == ["task"]


def test_missing_function_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(spans, "TIMED", {"exactla.gone_s": [("homcat.exactla", "gone")]})
    monkeypatch.setattr(spans, "COUNTED", {"exactla.gone_s": [("exactla.gone_calls", "count", None)]})
    tracer = spans.Tracer()
    assert tracer.install() == 0
    assert tracer.missing == ["exactla.gone_s", "exactla.gone_calls"]
    assert tracer.missing_functions == ["homcat.exactla.gone"]
    assert tracer.metrics() == {}
