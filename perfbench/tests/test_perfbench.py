"""Tests of the benchmark itself: tracing coverage, determinism, checking.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Checker  # noqa: E402
from tracer import BOUNDARIES  # noqa: E402

# The workload on which each boundary must record calls.
EXERCISED_BY = {
    "expand": ("poly.mul", "poly.add", "poly.compose", "series.ps_mul", "series.ps_invert",
               "expansions.xd_expand", "expansions.xb_expand", "expansions.divided_power_basis"),
    "umbral": ("series.ss_mul", "series.ss_compose", "series.ss_reverse", "series.pseries_exp",
               "umbral.umbral_op_dx", "umbral.delta_inverse", "umbral.sequences"),
    "dx": ("operators.table_row", "dx.fit_diagonal", "dx.dx_check", "dx.dx_construct",
           "dx.dx_apply"),
    "cli": ("poly.parse_poly", "series.ss_invert", "operators.d_expand",
            "operators.shift_invariance_check", "normal_order.normal_order_DjXi",
            "normal_order.reorder_product", "dsl.parse_operator", "cli.main", "cli.build_parser"),
}

COUNT_SUFFIXES = (".calls", "poly.mul.terms", "poly.coeff_bits_max", "operators.table_row.hit_ratio")

def traced_once(workload: str, seed: int = 5):
    """Metrics and check results of a one-round traced pass."""
    with tempfile.TemporaryDirectory() as tmp:
        metrics, spool, _ = run.traced_pass(workload, seed, 1, Path(tmp))
        attempted, failed, reasons = run.check_spool(workload, spool)
    return metrics, attempted, failed, reasons


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_twice(request):
    """(workload, first run, second run) of the same seed."""
    return request.param, traced_once(request.param), traced_once(request.param)


def test_every_boundary_is_assigned_a_workload():
    assigned = [name for names in EXERCISED_BY.values() for name in names]
    assert sorted(assigned) == sorted(name for name, _, _ in BOUNDARIES)


def test_boundaries_record_calls_on_their_workload(traced_twice):
    workload, (metrics, attempted, failed, reasons), _ = traced_twice
    assert failed == 0, reasons
    assert attempted > 0
    missing = [name for name in EXERCISED_BY[workload] if metrics[f"{name}.calls"][0] < 1]
    assert not missing


def test_count_metrics_repeat_for_one_seed(traced_twice):
    _, (first, *_), (second, *_) = traced_twice
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert len(counts) == len(BOUNDARIES) + 3
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded_and_distinct(workload):
    def keys_of(seed):
        stream = workloads.make_stream(workload, seed)
        return [json.dumps(job.key) for r in range(4) for job in stream.round(r)]

    keys, again, other = keys_of(1), keys_of(1), keys_of(2)
    assert keys == again
    assert keys != other
    assert len(set(keys)) == len(keys)


def test_round_mix_is_fixed():
    stream = workloads.make_stream("cli", 3)
    for r in range(3):
        slots = sorted(job.key[1] for job in stream.round(r))
        assert len(slots) == 40
        assert slots.count("malformed") == 2
        assert len({s for s in slots if s != "malformed"}) == 10


@pytest.fixture(scope="module")
def checker():
    return Checker(HERE.parent)


def corrupt(out):
    """The output with its first rational coefficient increased by one."""
    if isinstance(out, dict) and "rc" in out:
        return {**out, "rc": 1}
    done = []

    def walk(v):
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        if isinstance(v, str) and not done and v.lstrip("-").replace("/", "").isdigit():
            done.append(v)
            return str(Fraction(v) + 1)
        return v

    return walk(out)


def test_checker_rejects_wrong_outputs_without_raising(checker):
    for workload in workloads.WORKLOADS:
        job = workloads.make_stream(workload, 7).round(0)[0]
        out = job.dump(job.run())
        record = {"key": job.key, "exc": None, "out": out}
        assert checker.check(workload, job.key, record) is None
        bad = corrupt(out)
        assert bad != out
        assert checker.check(workload, job.key, {"key": job.key, "exc": None, "out": bad})
        assert checker.check(workload, job.key, {"key": job.key, "exc": "ValueError: x", "out": None})
        assert checker.check(workload, job.key, {"key": job.key, "exc": None, "out": {"junk": 1}})


def test_checker_knows_the_correct_outcome_of_the_known_defects(checker):
    expand_dx, negative_n = workloads.make_stream("cli", 1).known_defects()
    a = Fraction(expand_dx.key[3]["a"])
    series = [str(a**j / math.factorial(j)) for j in range(13)]
    good = {"kind": "dx-expansion", "verdict": "dx", "trunc_k": 0, "complete": True,
            "validated_degree": 9, "terms": [{"k": 0, "series_in_D": series, "trunc": 12}]}
    out = {"rc": 0, "stdout": json.dumps(good), "stderr": ""}
    assert checker.check("cli", expand_dx.key, {"exc": None, "out": out}) is None
    not_dx = {"kind": "dx-expansion", "verdict": "not-dx", "reason": "diagonal t=-12"}
    out = {"rc": 0, "stdout": json.dumps(not_dx), "stderr": ""}
    assert checker.check("cli", expand_dx.key, {"exc": None, "out": out})
    assert checker.check("cli", negative_n.key, {"exc": None, "out": {"rc": 2, "stdout": "", "stderr": ""}}) is None
    assert checker.check("cli", negative_n.key, {"exc": "ValueError: truncation", "out": None})


def test_percentile_is_nearest_rank():
    times = [float(i) for i in range(200, 0, -1)]
    assert run.percentile(times, 95.0) == 190.0
    assert run.percentile(times, 50.0) == 100.0
