"""Tests of the benchmark itself: each correctness check can fail, the
tracer's coverage check catches a missed binding, and a smoke size of every
workload passes its checks in seconds.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import mmrd
import workloads
import run_bench
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def blowup_round():
    w = workloads.Blowup1D(seed=3, smoke=True)
    w.setup()
    return w, w.solve()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name, tmp_path):
    w = workloads.WORKLOADS[name](seed=5, smoke=True)
    w.workdir = tmp_path
    t0 = time.perf_counter()
    w.setup()
    try:
        rnd = w.solve()
        assert rnd.failed == 0 and rnd.attempted >= 1
        assert w.check(rnd) == []
    finally:
        w.close()
    assert time.perf_counter() - t0 < 20.0


def test_workload_names_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(run_bench.WORKLOAD_NAMES)


def test_seed_fixes_the_inputs():
    a, b, c = (workloads.Plate2D(seed=s).scenario for s in (7, 7, 8))
    assert a == b and a != c


def test_balance_check_fails_on_a_nudged_state(blowup_round):
    w, rnd = blowup_round
    kept = rnd.data["neumann"]
    states = kept.states[:, 0, :].copy()
    defects = checks.balance_defects_1d(kept.traj.times, states, w.p, ("neumann",))
    assert checks.check_balance("neumann", defects) == []
    states[len(states) // 2, states.shape[1] // 2] += 1e-3
    defects = checks.balance_defects_1d(kept.traj.times, states, w.p, ("neumann",))
    assert checks.check_balance("neumann", defects)


def test_balance_2d_check_fails_on_a_nudged_state():
    w = workloads.Plate2D(seed=2, smoke=True)
    w.setup()
    kept = w.solve().data["run"]
    states = kept.states[:, 0].copy()
    assert checks.check_balance("2d", checks.balance_defects_2d(kept.traj.times, states, w.p, w.law)) == []
    states[-1, 0, 0] += 1e-3  # a corner: its flux enters through both faces
    assert checks.check_balance("2d", checks.balance_defects_2d(kept.traj.times, states, w.p, w.law))


def test_blowup_order_check_fails_when_two_times_swap(blowup_round):
    w, rnd = blowup_round
    tb = {label: kept.verdict.t_blowup for label, kept in rnd.data.items()}
    y0 = checks.kaplan_moment(w.u0)
    assert checks.check_blowup_times(tb["neumann"], tb["power"], tb["dirichlet"], w.u0, y0, 0.0) == []
    swapped = checks.check_blowup_times(tb["dirichlet"], tb["power"], tb["neumann"], w.u0, y0, 0.0)
    assert any("order" in msg for msg in swapped)


def test_eigenvalue_check_fails_when_shifted():
    mesh = mmrd.build_mesh(2, [1.0, 1.0], [11, 11])
    lam = mmrd.principal_eigenpair(mesh, "discrete").lambda1
    assert checks.check_lambda1(lam, 11) == []
    assert checks.check_lambda1(lam * (1.0 + 1e-8), 11)


def test_pair_csv_check_fails_when_columns_disagree():
    t = np.array([0.0, 0.1])
    sub = {"t": t, "dt": t, "supnorm_k1": np.array([1.0, 1.0]), "y": np.array([0.5, 0.5])}
    sup = dict(sub, supnorm_k1=np.array([1.0, 1.5]))
    assert checks.check_pair_csvs(sub, sup, 1e-6) == []
    assert checks.check_pair_csvs(sup, sub, 1e-6)
    assert checks.check_pair_csvs(sub, dict(sup, t=t + 1e-9), 1e-6)


def _traced_round(w):
    tracer = Tracer()
    tracer.install()
    try:
        w.setup()
        setup_snap = tracer.snapshot()
        tracer.reset()
        rnd = w.solve()
        round_snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    return tracer, rnd, setup_snap, round_snap


def test_traced_run_reports_every_per_layer_metric():
    w = workloads.Blowup1D(seed=3, smoke=True)
    tracer, rnd, setup_snap, round_snap = _traced_round(w)
    assert tracer.coverage_errors == [] and tracer.run_calls == 3
    metrics = run_bench.traced_metrics(setup_snap, [round_snap], overhead=0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    accepted = sum(len(kept.traj.times) - 1 for kept in rnd.data.values())
    assert metrics["stepper.steps_accepted"] == accepted
    assert metrics["spectral.principal_eigenpair.s"] > 0.0  # set-up is traced too
    # tracing is gone after uninstall
    assert not hasattr(mmrd.stepper.step, "__wrapped__")
    assert not hasattr(mmrd.compare.run, "__wrapped__")


def test_coverage_check_catches_a_missed_binding():
    w = workloads.Blowup1D(seed=3, smoke=True)
    tracer = Tracer()
    tracer.install()
    traced_step = mmrd.stepper.step
    mmrd.stepper.step = traced_step.__wrapped__  # as if this binding were missed
    try:
        w.setup()
        w.solve()
    finally:
        mmrd.stepper.step = traced_step
        tracer.uninstall()
    assert len(tracer.coverage_errors) == 3


def test_combined_resolvents_are_counted_only_on_obstacle_runs(tmp_path):
    w = workloads.ObstacleReactor(seed=4, smoke=True)
    _, _, _, snap = _traced_round(w)
    assert snap["extra"]["resolve_terms.combined.calls"] > 0
    w = workloads.PairReactor(seed=4, smoke=True)
    w.workdir = tmp_path
    try:
        tracer, rnd, _, snap = _traced_round(w)
        assert w.check(rnd) == []
    finally:
        w.close()
    assert snap["extra"]["resolve_terms.combined.calls"] == 0
    assert tracer.coverage_errors == [] and tracer.run_calls == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "plate_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
