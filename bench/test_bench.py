"""Smoke tests of the benchmark on tiny ladders.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = {
    "PLANTED_RUNGS": (([2], [(2, 2)], 2),),
    "OQRW_SITES": (3,),
    "MARKOV_RUNGS": (([2, 2, 2], 2, 20),),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    return str(tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_ladder_passes_every_oracle(tiny, workload):
    rungs = workloads.build_ladder(workload, 3, tiny)
    first = run.run_pass(rungs, 3, tiny, sweeps=(2, 3), redo=0)
    second = run.run_pass(rungs, 3, tiny)
    assert first.failures == [] and second.failures == []
    assert first.attempted == (1 + 2 + 3 + 1) * len(rungs) + 1
    assert first.digests == second.digests
    assert first.decompose_s > 0
    assert len(first.validate_sweeps) == 2 and min(first.validate_sweeps) > 0
    assert len(first.readback_sweeps) == 3 and min(first.readback_sweeps) > 0


def test_same_seed_same_channel_files(tiny):
    a = workloads.build_ladder("markov-kraus-heavy", 5, os.path.join(tiny, "a"))
    b = workloads.build_ladder("markov-kraus-heavy", 5, os.path.join(tiny, "b"))
    for x, y in zip(a, b):
        with open(x.channel_path, "rb") as fx, open(y.channel_path, "rb") as fy:
            assert fx.read() == fy.read()


@pytest.mark.parametrize(
    "field, wrong",
    [("n_alpha", lambda v: v + 1), ("fixed_dim", lambda v: v + 1),
     ("beta_sizes", lambda v: v + [2]), ("dim_D", lambda v: v - 1)],
)
def test_wrong_planted_truth_counts_as_failed(tiny, field, wrong):
    rungs = workloads.build_ladder("planted-dense", 3, tiny)
    rungs[0].truth[field] = wrong(rungs[0].truth[field])
    p = run.run_pass(rungs, 3, tiny)
    assert p.attempted == 4
    assert len(p.failures) == 1 and "truth" in p.failures[0]


def test_wrong_markov_classes_count_as_failed(tiny):
    rungs = workloads.build_ladder("markov-kraus-heavy", 3, tiny)
    classes = rungs[0].truth["classes"]
    rungs[0].truth["classes"] = [classes[0] + classes[1]] + classes[2:]
    p = run.run_pass(rungs, 3, tiny)
    assert len(p.failures) == 1 and "closed classes" in p.failures[0]


def test_closed_classes_by_hand():
    # 0 <-> 1 closed, 2 absorbing, 3 transient (leaks to 0 and 2)
    p = np.array(
        [
            [0.5, 0.5, 0.0, 0.3],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.3],
            [0.0, 0.0, 0.0, 0.4],
        ]
    )
    assert workloads.closed_classes(p) == [[0, 1], [2]]


def test_round_trip_oracle_flags_a_bad_residual():
    from collections import namedtuple

    import chanstruct as cs

    sent = cs.InvariantStateParameters(t=np.array([0.5]), M=(np.eye(2) / 4,))
    result = namedtuple("R", "params residual")(sent, 1e-3)
    assert oracles.check_round_trip(sent, result)
    assert not oracles.check_round_trip(sent, result._replace(residual=0.0))


def test_traced_pass_emits_every_declared_layer(tiny):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    rungs = workloads.build_ladder("oqrw-sparse", 3, tiny)
    tracer = Tracer()
    p = run.run_pass(rungs, 3, tiny, tracer)
    assert p.failures == []
    own = {n for n in declared if not n.startswith(("blas1.", "trace."))}
    own -= {"validate_s", "readback_s"}  # medians of the untraced passes
    assert set(p.layers) == own
    assert p.layers["structure.block_states_calls"] >= 1
    assert p.layers["kernel.svd_calls"] >= 1
    # spans nest: every parent closes after its children
    for name, start, end, parent, _ in tracer.spans:
        assert end >= start
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, True], ["b", 1.0, 4.0, 0, True],
                    ["b", 5.0, 6.0, 0, True]]
    s = tracer.summary()
    assert s["a"]["self"] == pytest.approx(6.0)
    assert s["b"] == {"calls": 2, "incl": pytest.approx(4.0), "self": pytest.approx(4.0)}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oqrw-sparse", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
