"""Tests of the benchmark's own code: span arithmetic, quartiles, tracing
and the correctness gates."""

import json
import random
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE.parent / "tests"))

import repeat  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from conftest import random_uca  # noqa: E402

from omegadp import lasso_bulk, odp, reduction  # noqa: E402


def span(name, start, end, parent=None, run_id=0, count_s=0.0, **counts):
    out = {"name": name, "run": run_id, "parent": parent, "start": start,
           "end": end, "count_s": count_s}
    if counts:
        out["counts"] = counts
    return out


def test_self_time_subtracts_children_and_counting():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0, count_s=0.5),
        span("c", 2.0, 3.0, parent=1),
        span("d", 5.0, 6.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 5.0, parent=0),
             span("c", 3.0, 7.0, parent=0), span("d", 9.0, 12.0, parent=0)]
    # children cover [1, 7] and [9, 10] of the parent's interval
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_quartiles_and_spread():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, median, q3 = repeat.quartiles(values)
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])
    assert median == statistics.median(values)
    assert repeat.spread(values) == pytest.approx((q3 - q1) / median)


def test_layer_metrics_sum_calls_and_derive_ratios():
    spans = [
        span("biolab.build_biolab", 0.0, 1.0, run_id="setup"),
        span("complement.complement_uca", 1.0, 3.0, states_out=10,
             transitions_out=40),
        span("reduction.prune_empty", 3.0, 4.0, states_in=10, states_out=2),
        span("complement.complement_uca", 4.0, 8.0, states_out=30,
             transitions_out=80, count_s=1.0),
        span("reduction.prune_empty", 8.0, 9.0, states_in=30, states_out=6),
        span("lasso_bulk.uca_signature", 9.0, 12.0, words=5),
        span("lasso_bulk.nba_signature", 10.0, 11.0, parent=5, words=5),
        span("lasso_bulk.nba_signature", 12.0, 13.0, words=5),
    ]
    names = [m["name"] for m in run.benchmark_spec()["per_layer"]]
    m = tracing.layer_metrics(spans, names)
    assert m["biolab.build_biolab.s"] == pytest.approx(1.0)
    assert m["complement.complement_uca.s"] == pytest.approx(5.0)
    assert m["complement.complement_uca.calls"] == 2
    assert m["complement.complement_uca.states_out"] == 40
    assert m["complement.complement_uca.states_per_s"] == pytest.approx(
        40 / 5)
    assert m["complement.live_ratio"] == pytest.approx(8 / 40)
    assert m["lasso_bulk.uca_signature.s"] == pytest.approx(2.0)
    assert m["lasso_bulk.nba_signature.s"] == pytest.approx(2.0)
    assert m["lasso_bulk.words"] == 10  # the nested call reads the same words
    assert m["mdp.discounted_vi.s"] == 0.0
    assert list(m) == names


def test_tracer_catches_calls_between_library_modules():
    original = odp.complement_uca
    A = random_uca(random.Random(7), 2, n_ap=2)
    with tracing.Tracer() as tracer:
        assert odp.complement_uca is not original
        reduction.run_pipeline(A)
    assert odp.complement_uca is original
    names = [s["name"] for s in tracer.spans]
    assert names[0] == "complement.complement_uca"
    assert names[1:] == ["reduction.prune_empty", "reduction.lump_final",
                         "reduction.merge_lang_final", "reduction.lump_all"]
    assert tracer.spans[0]["counts"]["states_out"] > 0


def test_wrong_oracle_answer_is_counted_and_the_run_goes_on(
        monkeypatch, capsys, tmp_path):
    real = lasso_bulk.uca_signature
    calls = []

    def flipped(A, bound):
        sig = real(A, bound)
        calls.append(A)
        if len(calls) == 2:
            sig = np.logical_not(sig)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return sig

    monkeypatch.setattr(lasso_bulk, "uca_signature", flipped)
    small = workloads.Workload(
        lambda seed, root: workloads.oracle_setup(seed, root, per_size=1),
        workloads.oracle_job)
    monkeypatch.setitem(workloads.WORKLOADS, "oracle", small)
    monkeypatch.setattr(run, "HERE", tmp_path)  # the spans go to tmp_path
    assert run.main(["--workload", "oracle", "--seed", "3",
                     "--trace", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["attempted"] == 4
    assert result["failed"] == 2 and result["correct"] is False
    assert any(line.startswith("failed_frac 0.5") for line in out)
    assert (tmp_path / "traces" / "oracle-3.jsonl").is_file()


def test_wrong_fixture_answer_is_counted(monkeypatch):
    real = reduction.run_pipeline

    def inflated(A, budget):
        R, stats = real(A, budget)
        stats.lumpa = stats.lang + 1  # a stage that grows
        return R, stats

    monkeypatch.setattr(reduction, "run_pipeline", inflated)
    inputs = workloads.fixtures_setup(1, HERE.parent)
    inputs["texts"] = {k: inputs["texts"][k] for k in ("reduce_01",
                                                       "reduce_02")}
    res = workloads.fixtures_job(inputs, tracing.Tracer({}))
    assert res.attempted == 2 and len(res.failures) == 2


def test_missing_sources_exit_without_a_result(monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "lab"]) == 2
    assert capsys.readouterr().out == ""
