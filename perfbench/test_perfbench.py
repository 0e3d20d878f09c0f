"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_lynmag  # noqa: E402

lm = import_lynmag()


# ------------------------------------------------------------ seeded inputs


def _input_bytes(workload: str, seed: int) -> bytes:
    return json.dumps(workloads.make_inputs(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_across_processes(workload):
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
        "print(json.dumps(workloads.make_inputs(sys.argv[2], 7), sort_keys=True), end='')"
    )
    here = _input_bytes(workload, 7)
    for hash_seed in ("1", "2"):
        other = subprocess.run(
            [sys.executable, "-c", code, str(HERE), workload],
            capture_output=True, check=True, env={"PYTHONHASHSEED": hash_seed},
        ).stdout
        assert other == here


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    assert _input_bytes(workload, 7) != _input_bytes(workload, 8)


# ------------------------------------------------------------ output checks


def _pairing_output(req):
    argv = ["pairing-matrix", "--alphabet", req["letters"], "--n", str(req["n"]),
            "--p", str(req["p"]), "--format", "json"]
    return workloads._cli(lm, argv)


def _with_rows(out, edit):
    report = json.loads(out[1])
    edit(report["rows"])
    return 0, json.dumps(report)


def test_pairing_checker_accepts_real_output_and_rejects_corruptions():
    req = {"letters": "bca", "n": 3, "p": 5}
    out = _pairing_output(req)
    assert workloads.check_pairing(req, out)[0] is None
    index = json.loads(out[1])["index"]
    i, j = index.index("bca"), index.index("bac")
    assert json.loads(out[1])["rows"][i][j] == 4  # the single -1 of the closed form

    def clear_special(rows):
        rows[i][j] = 0

    def break_lower(rows):
        rows[1][0] = 1

    def drop_row(rows):
        rows.pop()

    for edit in (clear_special, break_lower, drop_row):
        assert workloads.check_pairing(req, _with_rows(out, edit))[0] is not None
    assert workloads.check_pairing(req, (1, "consistency failure"))[0] is not None
    assert workloads.check_pairing(req, workloads.Raised(ValueError("boom")))[0] is not None
    malformed = workloads.check_outputs("pairing-cli", {"requests": [req]}, [(0, "[]")])
    assert malformed[0][0].startswith("malformed output")


def test_filtration_checker_rejects_a_wrong_term():
    case = {"s": 2, "p": 3, "n": 2,
            "generators": [[[1, 2, 1], [1, 3, 0]], [[2, 3, 1]]]}
    table, term = workloads._filtration_op(lm, case)
    assert workloads.check_filtration(case, (table, term))[0] is None
    assert workloads.check_filtration(case, (table, term.elements[:-1]))[0] is not None
    assert workloads.check_filtration(case, (table.elements[:-1], term))[0] is not None
    off_corner = lm.UnipotentMatrix.elementary(3, 3, 1, 2)
    assert workloads.check_filtration(case, (table, term.elements[:-1] + (off_corner,)))[0] is not None


def test_shuffle_checkers_reject_corruptions():
    assert workloads._check_bools([False], False)[0] is None
    assert workloads._check_bools([True], False)[0] is not None  # control passed

    sp = {"letters": "cab", "deg": 3, "p": 7}
    argv = ["shuffle", "--span", "--deg", "3", "--p", "7", "--alphabet", "cab", "--format", "json"]
    out = workloads._cli(lm, argv)
    assert workloads.check_span(sp, out)[0] is None
    report = json.loads(out[1])
    report["lyndon_map"]["bac"] = {"cab": 2}  # the true class is 1·(cab)
    assert workloads.check_span(sp, (0, json.dumps(report)))[0] is not None

    red = {"letters": "cab", "p": 7,
           "words": ["".join(t) for d in (2, 3) for t in product("cab", repeat=d)]}
    outs = [workloads._cli(lm, ["shuffle", "--reduce", w, "--p", "7", "--alphabet", "cab",
                                "--format", "json"]) for w in red["words"]]
    assert all(e is None for e, _ in workloads.check_reduce(red, outs))
    k = red["words"].index("ac")
    bad = json.loads(outs[k][1])
    bad["lyndon_combination"] = {"ca": 1}
    outs[k] = (0, json.dumps(bad))
    assert any(e is not None for e, _ in workloads.check_reduce(red, outs))


# ------------------------------------------------------------ tracing


def _bindings():
    """Every attribute of every lynmag module and class, by identity."""
    out = {}
    modules = [lm] + tracing.Tracer(lm)._modules()
    for module in modules:
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("lynmag"):
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, attr, cattr)] = cvalue
    return out


def test_tracing_wrappers_are_gone_after_the_traced_round():
    before = _bindings()
    original_cfl = lm.shufalg.cfl_check
    tracer = tracing.Tracer(lm)
    tracer.install()
    try:
        assert lm.shufalg.cfl_check is not original_cfl
        assert lm.cfl_check is lm.shufalg.cfl_check
        result = tracer.run_request(0, "cfl", lambda: workloads._cfl_op(lm, "x y x^-1", 3))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert all(result)
    metrics = tracer.layer_metrics()
    assert metrics["shufalg.cfl_checks"] == len(result)
    assert metrics["series.magnus_calls"] == len(result)
    assert metrics["matgrp.mul_calls"] == 0
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s"}


def test_validators_called_by_constructors_form_their_own_layer():
    case = {"s": 2, "p": 3, "n": 2,
            "generators": [[[1, 2, 1], [1, 3, 0]], [[2, 3, 1]]]}
    tracer = tracing.Tracer(lm)
    tracer.install()
    try:
        tracer.run_request(0, "filtration", lambda: workloads._filtration_op(lm, case))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["matgrp.mul_calls"] > 0
    assert metrics["validate.calls"] > metrics["matgrp.mul_calls"]
    assert metrics["series.self_s"] == 0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(lm.linalg, "rref_mod_p")
    tracer = tracing.Tracer(lm)
    tracer.install()
    try:
        tracer.run_request(0, "lyndon", lambda: lm.lyndon_words(lm.Alphabet("xy"), 3))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["linalg.rref_calls"] is None
    assert metrics["linalg.rref_cells"] is None
    assert metrics["words.calls"] > 0
    # An absent mechanism is idle, so its bypass check passes.
    assert tracing.bypass_failures("pairing-cli", metrics) == []
    assert tracing.bypass_failures("pairing-cli", {"linalg.rref_calls": 3}) != []


# ------------------------------------------------------------ the command


def test_run_fails_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shuffle-coeffs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
