"""The benchmark's own tests: tracer bindings and the failure tally.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import zecap.cli  # noqa: F401  (loads every zecap module the tracer patches)
import zecap.subspaces

import tracer as tr
from hostspeed import SAMPLE_INTERVAL, HostSampler
from worker import Tally
from workloads import (
    HEADLINES,
    PINNED_SEEDS,
    WORKLOADS,
    Op,
    Outcome,
    expected_for,
    load_expected,
    operations,
    outcome_of,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def test_every_wrapped_function_is_bound_where_the_tracer_patches_it():
    tr.check_targets()


def test_a_renamed_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(zecap.cli, "grid_product_overlap")
    with pytest.raises(tr.TracerError, match="grid_product_overlap"):
        tr.check_targets()


def test_an_unlisted_binding_fails_loudly(monkeypatch):
    monkeypatch.setattr(zecap.cli, "max_product_overlap",
                        zecap.subspaces.max_product_overlap, raising=False)
    with pytest.raises(tr.TracerError, match="unlisted"):
        tr.check_targets()


def test_tracer_restores_every_binding():
    before = {(t.module, t.attr): tr._resolve(t)[2] for t in tr.TARGETS}
    with tr.Tracer(time.perf_counter):
        assert zecap.cli.certify_completely_entangled is not before[
            ("subspaces", "certify_completely_entangled")]
    after = {(t.module, t.attr): tr._resolve(t)[2] for t in tr.TARGETS}
    assert after == before
    tr.check_targets()


def test_traced_pass_reports_every_layer_metric_with_self_time():
    with tr.Tracer(time.perf_counter) as tracer:
        tracer.start_pass()
        tracer.begin_op(0)
        code = zecap.cli.main(["verify", "--builtin", "em1:2", "--suite",
                               "properties,ce", "--restarts", "8", "--out", os.devnull])
        metrics = tracer.pass_metrics()
    assert code == 1                         # em1:2 holds a product state
    assert set(metrics) == {name for name, _ in tr.PER_LAYER}
    assert metrics["cli.main.calls"] == 1
    # ce/S0, ce/S1, then certify_alpha_local_one repeats S0 at the same seed
    assert metrics["subspaces.max_product_overlap.calls"] == 4
    assert metrics["subspaces.max_product_overlap.restarts"] == 32
    assert metrics["subspaces.max_product_overlap.repeat_ratio"] == 0.25
    assert metrics["renyi.min_output_rank_search.calls"] == 0
    search = metrics["subspaces.max_product_overlap.s"]
    certify = metrics["subspaces.certify_completely_entangled.s"]
    assert 0 < search <= certify
    assert metrics["protocols.certify_alpha_local_one.self_s"] < \
        metrics["protocols.certify_alpha_local_one.s"]
    for name, _ in tr.PER_LAYER:
        assert metrics[name] >= 0


def test_host_sampler_samples_during_work_and_leaves_itself_out_of_its_clock():
    with HostSampler() as sampler:
        start, clock_start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - start < 4 * SAMPLE_INTERVAL:
            sum(range(1000))
        wall, net = time.perf_counter() - start, sampler.clock() - clock_start
    assert len(sampler.samples) >= 3
    assert wall - net == pytest.approx(sum(sampler.samples), rel=0.2)


def _pinned_ce_op():
    pins = load_expected()
    op = operations("ce-multiparty", 0, "")[0]
    return op, expected_for(pins, "ce-multiparty", 0)


def _report(verdict: str, headline: dict, s0: float) -> str:
    values = {**headline, "ce/S0": s0}
    return json.dumps({"verdict": verdict, "extra": {},
                       "checks": [{"name": k, "value": v} for k, v in values.items()]})


def test_expected_outcomes_cover_every_workload_and_seed():
    pins = load_expected()
    for workload in WORKLOADS:
        for wseed in range(PINNED_SEEDS):
            want = expected_for(pins, workload, wseed)
            assert set(want) == {op.label for op in operations(workload, wseed, "")}
            for outcome in want.values():
                assert set(outcome["headline"]) <= set(HEADLINES)


def test_forced_verdict_mismatch_counts_as_a_failed_operation():
    op, want = _pinned_ce_op()
    headline = want[op.label]["headline"]
    ref = headline["ce/S0"]
    tally = Tally(want)
    tally.check([(op, 0, _report("pass", headline, ref), "")])
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.check([(op, 0, _report("fail", headline, ref), "")])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_weaker_search_and_crash_count_as_failed_operations():
    op, want = _pinned_ce_op()
    headline = want[op.label]["headline"]
    ref = headline["ce/S0"]
    tally = Tally(want)
    tally.check([(op, 0, _report("pass", headline, ref - 1e-4), ""),  # lower overlap
                 (op, None, "", "Traceback ..."),                     # the CLI raised
                 (op, 0, _report("pass", headline, ref - 1e-8), ""),  # within precision
                 (op, 0, _report("pass", headline, ref + 1e-6), "")])  # higher is allowed
    assert (tally.attempted, tally.failed) == (4, 2)


def test_negative_control_is_pinned_as_a_failing_verify():
    pins = load_expected()
    for wseed in range(PINNED_SEEDS):
        em12 = expected_for(pins, "portfolio", wseed)["verify --spec em1:2"]
        assert (em12["exit"], em12["verdict"]) == (1, "fail")
        assert em12["headline"]["ce/S0"] == 1.0


def test_headline_outcome_parses_renyi_extras():
    op = Op("renyi-gap e21", ("renyi-gap",))
    got = outcome_of(op, 0, json.dumps({"verdict": "pass", "checks": [],
                                        "extra": {"two_use_rank": 15,
                                                  "single_use_floor": 4}}))
    assert got == Outcome(0, "pass", {"extra/two_use_rank": 15,
                                      "extra/single_use_floor": 4}, got.sha256)


def test_run_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), "rb").read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "renyi-gap",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
