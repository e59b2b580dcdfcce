"""Tests for the implicit stepper, adaptive runs and blow-up detection."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmrd.graphs
import mmrd.stepper
from mmrd.errors import SolverFailure
from mmrd.graphs import (
    MonotoneGraph,
    dirichlet_graph,
    extended_neumann_graph,
    extended_power_graph,
    obstacle_graph,
    zero_graph,
)
from mmrd.mesh import build_mesh, sup_norm
from mmrd.scenarios import build_problem, make_preset
from mmrd.reactions import (
    eval_reaction,
    nuclear_reaction,
    power_reaction,
    zero_reaction,
)
from mmrd.spectral import principal_eigenpair
from mmrd.stepper import (
    SOLVE_TOL,
    ProblemSpec,
    TimeControl,
    Trajectory,
    detect_blowup,
    local_existence_horizon,
    run,
    step,
)
from oracles import oracle_step_residual


def scalar_problem(n=51, reaction=None, boundary=None, interior=None, u0=None, a=1.0):
    mesh = build_mesh(1, [1.0], [n])
    reaction = reaction or zero_reaction()
    boundary = boundary or zero_graph()
    interior = interior or zero_graph()
    if u0 is None:
        u0 = np.ones(mesh.shape)
    elif callable(u0):
        u0 = u0(mesh.axes[0])
    return ProblemSpec(mesh, (a,), reaction, (interior,), (boundary,), np.asarray([u0]))


@pytest.mark.parametrize("n", [10, 11, 24, 33])
@pytest.mark.parametrize("bc_kind", ["neumann", "dirichlet"])
def test_step_matches_dense_linear_solve(n, bc_kind):
    """For linear boundary laws the implicit step is a linear system; the
    Newton result must match a direct dense solve."""
    mesh = build_mesh(1, [1.0], [n])
    a, dt = 0.7, 3e-3
    h = mesh.spacing[0]
    mu = a * dt / h**2
    rng = np.random.default_rng(n)
    u0 = rng.random(n) + 0.5
    bc = zero_graph() if bc_kind == "neumann" else dirichlet_graph()
    P = ProblemSpec(mesh, (a,), zero_reaction(), (zero_graph(),), (bc,), np.asarray([u0]))
    got = step(P, P.initial_state(), dt)[0]

    M = np.zeros((n, n))
    rhs = P.initial_state()[0].copy()
    for i in range(1, n - 1):
        M[i, i - 1] = M[i, i + 1] = -mu
        M[i, i] = 1.0 + 2.0 * mu
    if bc_kind == "neumann":
        M[0, 0] = M[-1, -1] = 1.0 + 2.0 * mu
        M[0, 1] = M[-1, -2] = -2.0 * mu
    else:
        M[0, 0] = M[-1, -1] = 1.0
        rhs[0] = rhs[-1] = 0.0
    expect = np.linalg.solve(M, rhs)
    np.testing.assert_allclose(got, expect, atol=5e-10)


def test_constant_state_is_equilibrium_to_machine_precision():
    P = scalar_problem(u0=lambda x: np.full_like(x, 3.7))
    S = P.initial_state()
    for _ in range(5):
        S = step(P, S, 1e-2)
    assert np.max(np.abs(S - 3.7)) <= 1e-14


def test_constant_state_stays_fixed_through_run():
    """A run keeps its accepted states, and their extrapolation is the
    constant itself: 300 steps at dt = 1e-3 move it by at most 2 ulp."""
    P = scalar_problem(n=101, boundary=extended_neumann_graph(),
                       u0=lambda x: np.full_like(x, 3.7))
    traj = run(P, TimeControl(t_end=0.3))
    assert traj.status == "completed" and len(traj.times) - 1 == 300
    assert np.max(np.abs(traj.final_state - 3.7)) <= 2.0 * np.spacing(3.7)


def test_heat_decay_rate_matches_principal_eigenvalue():
    n = 201
    mesh = build_mesh(1, [1.0], [n])
    u0 = np.sin(np.pi * mesh.axes[0])
    P = ProblemSpec(mesh, (1.0,), zero_reaction(), (zero_graph(),), (dirichlet_graph(),),
                    np.asarray([u0]))
    dt = 1e-4
    S = P.initial_state()
    sups = [sup_norm(S[0])]
    for _ in range(200):
        S = step(P, S, dt)
        sups.append(sup_norm(S[0]))
    sups = np.asarray(sups)
    assert np.all(np.diff(sups) < 0)  # monotone decay
    rate = -np.polyfit(dt * np.arange(len(sups)), np.log(sups), 1)[0]
    assert rate == pytest.approx(np.pi**2, rel=0.02)


def test_obstacle_interior_graph_clamps_states():
    # u' = u^2 from 0.9 passes 1 at t = 1/9; the obstacle graph absorbs it at level M
    P = scalar_problem(
        reaction=power_reaction(3.0), interior=obstacle_graph(1.0),
        boundary=extended_neumann_graph(), u0=lambda x: np.full_like(x, 0.9),
    )
    S = P.initial_state()
    for _ in range(80):
        S = step(P, S, 1e-2)
    assert np.max(S) <= 1.0 + 1e-12
    assert np.max(S) >= 1.0 - 1e-6  # it actually reaches the obstacle


def test_step_preserves_nodewise_ordering():
    mesh = build_mesh(1, [1.0], [101])
    x = mesh.axes[0]
    P = ProblemSpec(
        mesh, (1.0,), power_reaction(3.0), (zero_graph(),),
        (extended_power_graph(1.0, 2.5),), np.asarray([np.sin(np.pi * x) + 0.2]),
    )
    rng = np.random.default_rng(0)
    S1 = np.asarray([np.sin(np.pi * x) + 0.2])
    S2 = S1 + np.asarray([0.3 * rng.random(x.shape)])
    dt = 1e-4
    for _ in range(20):
        S1 = step(P, S1, dt)
        S2 = step(P, S2, dt)
        assert float(np.max(S1 - S2)) <= 1e-12


def test_backward_euler_sup_norm_nonincreasing_without_reaction():
    for bc in (extended_neumann_graph(), dirichlet_graph(), extended_power_graph(1.0, 2.0)):
        P = scalar_problem(boundary=bc, u0=lambda x: 1.0 + np.sin(2 * np.pi * x) ** 2)
        S = P.initial_state()
        prev = sup_norm(S[0])
        for _ in range(10):
            S = step(P, S, 5e-3)
            cur = sup_norm(S[0])
            assert cur <= prev + 1e-12
            prev = cur


def test_initial_data_projected_onto_graph_domains():
    # Dirichlet boundary forces boundary nodes to 0 at t=0
    P = scalar_problem(boundary=dirichlet_graph(), u0=lambda x: np.ones_like(x))
    assert P.initial[0][0] == 0.0 and P.initial[0][-1] == 0.0
    assert P.initial[0][1] == 1.0
    # obstacle interior law truncates everywhere
    P = scalar_problem(interior=obstacle_graph(0.5), u0=lambda x: np.ones_like(x))
    assert np.max(P.initial) <= 0.5


def test_run_trivial_zero_solution():
    P = scalar_problem(reaction=power_reaction(3.0), boundary=extended_power_graph(1.0, 2.5),
                       u0=lambda x: np.zeros_like(x))
    traj = run(P, TimeControl(t_end=0.1))
    assert traj.status == "completed"
    assert np.max(traj.sup_norms) == 0.0


def test_run_blowup_supercritical_dirichlet():
    mesh = build_mesh(1, [1.0], [51])
    phi = np.sin(np.pi * mesh.axes[0])
    phi /= np.trapezoid(phi, mesh.axes[0])
    P = ProblemSpec(mesh, (1.0,), power_reaction(3.0), (zero_graph(),),
                    (dirichlet_graph(),), np.asarray([12.0 * phi]))
    traj = run(P, TimeControl(t_end=2.0, blowup_threshold=1e3))
    assert traj.status == "blowup"
    verdict = detect_blowup(traj)
    assert verdict.kind == "blowup"
    assert 0.0 < verdict.t_blowup < 0.5
    assert verdict.ci_width < 0.05


def neumann_blowup_problem(n=51):
    """u_t = u_xx + u^2, u0 = 12 phi1, Neumann: blows up near t = 0.08."""
    mesh = build_mesh(1, [1.0], [n])
    u0 = 12.0 * principal_eigenpair(mesh).phi1
    return ProblemSpec(mesh, (1.0,), power_reaction(3.0), (zero_graph(),),
                       (extended_neumann_graph(),), np.asarray([u0]))


def test_blowup_time_converges_at_first_order_in_step_control():
    P = neumann_blowup_problem()
    tbs = []
    for dt_init, safety in ((1e-3, 0.1), (5e-4, 0.05), (2.5e-4, 0.025)):
        traj = run(P, TimeControl(t_end=1.0, dt_init=dt_init, safety=safety, blowup_threshold=1e3))
        assert traj.status == "blowup"
        tbs.append(detect_blowup(traj).t_blowup)
    d1, d2 = tbs[1] - tbs[0], tbs[2] - tbs[1]
    assert 1.7 <= d1 / d2 <= 2.3


def test_blowup_run_takes_few_steps_at_default_safety():
    # the relative-growth cap takes a bounded number of steps per decade of
    # the sup norm; the absolute cap safety / ell(r) took 10,681 here
    traj = run(neumann_blowup_problem(), TimeControl(t_end=1.0, blowup_threshold=1e3))
    assert traj.status == "blowup"
    assert len(traj.times) - 1 < 300


def test_accepted_steps_respect_relative_growth_and_lipschitz_caps():
    safety, p = 0.1, 3.0
    traj = run(neumann_blowup_problem(), TimeControl(t_end=1.0, blowup_threshold=1e3, safety=safety))
    r = traj.sup_norms[:-1, 0]  # the sample each step started from
    dt = traj.dts[1:]
    envelope = r + r ** (p - 1.0)  # ell(r) for F = u^2
    lipschitz = (p - 1.0) * r ** (p - 2.0)
    assert np.all(dt <= safety * np.maximum(1.0, r) / envelope * (1.0 + 1e-12))
    assert np.all(dt <= safety / lipschitz * (1.0 + 1e-12))


def test_run_nuclear_a_zero_growth_bound():
    mesh = build_mesh(1, [1.0], [31])
    ones = np.ones(mesh.shape)
    P = ProblemSpec(mesh, (1.0, 1.0), nuclear_reaction(0.0, 0.01),
                    (zero_graph(), zero_graph()),
                    (extended_neumann_graph(), extended_neumann_graph()),
                    np.asarray([ones, ones]))
    traj = run(P, TimeControl(t_end=2.0))
    assert traj.status == "completed"
    bound = np.exp(traj.times)  # ||u10|| * exp(||u20|| t)
    assert np.all(traj.sup_norms[:, 0] <= 1.05 * bound)


def test_run_reports_overflowing_envelope_as_collapse():
    problem, tc = build_problem(make_preset("Pp_power", n=21, c=1e300))
    traj = run(problem, tc)
    assert isinstance(traj, Trajectory)
    assert traj.status == "solver_failure"
    assert "collapsed" in traj.note


def test_positivity_preserved_for_nonnegative_data():
    P = scalar_problem(
        n=41, reaction=power_reaction(3.0), boundary=extended_power_graph(1.0, 2.5),
        u0=lambda x: np.sin(np.pi * x) ** 2,
    )
    traj = run(P, TimeControl(t_end=0.02, blowup_threshold=1e3))
    assert np.min(traj.min_values) >= -1e-12


def test_detect_blowup_reciprocal_samples():
    times = np.linspace(0.8, 0.99, 20)
    sups = 1.0 / (1.0 - times)
    traj = Trajectory(
        times=times, dts=np.diff(times, prepend=times[0]),
        sup_norms=sups[:, None], min_values=np.zeros_like(sups)[:, None],
        status="blowup", final_state=np.zeros((1, 3)),
    )
    v = detect_blowup(traj)
    assert v.t_blowup == pytest.approx(1.0, abs=1e-6)
    assert v.ci_width <= 1e-6


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_neumann_blowup_time_is_not_before_the_ode_time_from_the_last_sample(p):
    """Under Neumann data the scheme's state stays below the constant state
    through its sup norm (discrete comparison), and that state takes the
    reaction explicitly, so it grows no faster than u' = u^(p-1).  So the
    scheme blows up no earlier than that ODE from the last sample,
    t + sup^-(p-2) / (p-2), and the fit of sup^-(p-2) keeps to it; the
    fit of 1/sup, right only at p = 3, put T_b 0.033 before it at p = 2.5."""
    P, tc = build_problem(make_preset("Pp_neumann", n=51, p=p))
    traj = run(P, tc)
    assert traj.status == "blowup"
    assert traj.blowup_exponent == p - 2.0
    v = detect_blowup(traj)
    sup = traj.overall_sup[-1]
    assert v.t_blowup >= traj.times[-1] + sup ** -(p - 2.0) / (p - 2.0)


def test_detect_blowup_none_for_completed_and_failed():
    traj = Trajectory(
        times=np.asarray([0.0, 1.0]), dts=np.asarray([0.0, 1.0]),
        sup_norms=np.ones((2, 1)), min_values=np.zeros((2, 1)),
        status="completed", final_state=np.zeros((1, 3)),
    )
    assert detect_blowup(traj).kind == "none"
    traj.status = "solver_failure"
    traj.note = "dt collapsed below dt_min without sup-norm growth"
    v = detect_blowup(traj)
    assert v.kind == "none" and "dt collapsed" in v.note


def test_local_existence_horizon_values():
    assert local_existence_horizon(1.0, power_reaction(3.0)) == pytest.approx(1.0 / 12.0)
    assert local_existence_horizon(2.0, nuclear_reaction(1.0, 1.0)) == pytest.approx(1.0 / 24.0)
    F = power_reaction(3.0)
    horizons = [local_existence_horizon(s, F) for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(horizons, horizons[1:]))


def test_sup_norm_envelope_up_to_horizon():
    P = scalar_problem(n=51, reaction=power_reaction(3.0), boundary=dirichlet_graph())
    t0 = local_existence_horizon(1.0, P.reaction)
    traj = run(P, TimeControl(t_end=t0))
    assert traj.status == "completed"
    assert np.max(traj.sup_norms) <= 2.0 + 1e-6


def test_2d_constant_equilibrium_and_positivity():
    mesh = build_mesh(2, [1.0, 1.0], [9, 9])
    P = ProblemSpec(mesh, (1.0,), zero_reaction(), (zero_graph(),),
                    (extended_neumann_graph(),), np.asarray([np.full(mesh.shape, 2.0)]))
    S = P.initial_state()
    for _ in range(5):
        S = step(P, S, 1e-2)
    assert np.max(np.abs(S - 2.0)) <= 1e-13


def test_2d_dirichlet_decay():
    mesh = build_mesh(2, [1.0, 1.0], [17, 17])
    x, y = mesh.coords
    u0 = np.sin(np.pi * x) * np.sin(np.pi * y)
    P = ProblemSpec(mesh, (1.0,), zero_reaction(), (zero_graph(),),
                    (dirichlet_graph(),), np.asarray([u0]))
    S = P.initial_state()
    dt = 2e-4
    for _ in range(50):
        S = step(P, S, dt)
    # backward-Euler decay of the principal 2D mode, rate ~ 2 pi^2
    expected = 1.0 / (1.0 + dt * 2.0 * np.pi**2) ** 50
    assert sup_norm(S[0]) == pytest.approx(expected, rel=0.05)


def test_neumann_constant_state_at_n201_never_stalls(monkeypatch):
    """u0 = 2 under extended_neumann with p = 3 at n = 201 (mu ~ 20): every
    step converges at its proposed dt, none is rejected and halved."""
    failures = []

    def checked_step(P, S, dt, **kw):
        try:
            return step(P, S, dt, **kw)
        except SolverFailure as exc:
            failures.append((dt, exc.residual))
            raise

    monkeypatch.setattr(mmrd.stepper, "step", checked_step)
    P = scalar_problem(n=201, reaction=power_reaction(3.0), boundary=extended_neumann_graph(),
                       u0=lambda x: np.full_like(x, 2.0))
    traj = run(P, TimeControl(t_end=0.05, blowup_threshold=1e3))
    assert failures == []
    assert traj.status == "completed" and len(traj.times) > 1


def plate_problem(n=41, boundary=None):
    """2D power reaction p = 3 on the unit square with a Gaussian bump of
    height 3; dt stays at dt_init = 1e-3 for t <= 0.08."""
    mesh = build_mesh(2, [1.0, 1.0], [n, n])
    x, y = mesh.coords
    u0 = 3.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.01)
    boundary = boundary or extended_power_graph(1.0, 2.5)
    return ProblemSpec(mesh, (1.0,), power_reaction(3.0), (zero_graph(),), (boundary,),
                       np.asarray([u0]))


def count_calls(monkeypatch, name, log):
    """Append ``name`` to ``log`` at every call of mmrd.stepper.<name>."""
    original = getattr(mmrd.stepper, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmrd.stepper, name, counted)


def test_constant_dt_run_keeps_its_factorization(monkeypatch):
    """At constant dt the Newton matrix changes little from step to step, so
    the run factors it at least once and at most once per two steps, and
    every accepted state still solves its step's nodal inclusions."""
    steps = []

    def recording_step(P, S, dt, **kw):
        U = step(P, S, dt, **kw)
        steps.append((S, dt, U))
        return U

    calls = []
    count_calls(monkeypatch, "dpbtrf", calls)
    monkeypatch.setattr(mmrd.stepper, "step", recording_step)
    P = plate_problem()
    traj = run(P, TimeControl(t_end=0.012))
    assert traj.status == "completed" and len(steps) == len(traj.times) - 1 == 12
    assert 0 < len(calls) <= len(steps) // 2
    for S, dt, U in steps:
        assert oracle_step_residual(P, S, dt, U) <= 1e-9


def test_constant_dt_2d_run_factors_at_most_four_times(monkeypatch):
    """With the extrapolated start and chord steps kept while they contract
    100x, 50 steps at dt_init factor the band at most 4 times and solve with
    it 82 times (137 from a quadratic start), and every step still solves
    its nodal inclusions."""
    steps = []

    def recording_step(P, S, dt, **kw):
        U = step(P, S, dt, **kw)
        steps.append((S, dt, U))
        return U

    factors, solves = [], []
    count_calls(monkeypatch, "dpbtrf", factors)
    count_calls(monkeypatch, "_band_solve", solves)
    monkeypatch.setattr(mmrd.stepper, "step", recording_step)
    P = plate_problem()
    traj = run(P, TimeControl(t_end=0.05))
    assert traj.status == "completed" and len(steps) == len(traj.times) - 1 == 50
    assert 0 < len(factors) <= 4
    assert len(solves) <= 82
    for S, dt, U in steps:
        assert oracle_step_residual(P, S, dt, U) <= 1e-9


def test_constant_dt_1d_run_solves_about_once_per_step(monkeypatch):
    """The NR preset (n = 101, 1000 steps at dt_init): past its initial
    layer the start is within the stopping test, so a step takes only the
    one Newton step a predicted start is due, and that step, which has
    nothing left to contract, does not condemn the kept factors.  1022
    tridiagonal solves and 3 factorizations (1083 and 13 from a quadratic
    start)."""
    factors, solves = [], []
    count_calls(monkeypatch, "_tridiag_factor", factors)
    count_calls(monkeypatch, "_tridiag_solve", solves)
    P, tc = build_problem(make_preset("NR"))
    traj = run(P, tc)
    assert traj.status == "completed" and len(traj.times) - 1 == 1000
    assert 0 < len(factors) <= 3
    assert len(solves) <= 1022


def scale_recorded_norms(monkeypatch, factor, log):
    """Make each sample record ``factor`` times its sup norms, appending
    the sampled state to ``log`` at every pass over one."""
    original = mmrd.stepper._extremes

    def scaled(S):
        log.append(S)
        sups, mins = original(S)
        return [factor * v for v in sups], mins

    monkeypatch.setattr(mmrd.stepper, "_extremes", scaled)


def test_run_takes_each_sup_norm_once_per_sample(monkeypatch):
    """One pass over each sampled state takes its norms, and the step
    controller and the collapse classifier read the norms the run recorded,
    taking none of their own: with every recorded norm scaled by 4, each
    dt is ``propose_dt`` of the scaled norms before it, and a collapse note
    names the scaled radius."""
    passes = []
    scale_recorded_norms(monkeypatch, 4.0, passes)
    # u = 50 puts the Lipschitz cap 0.1 / (b + M) below dt_init, so dt
    # follows the box radius M
    P, tc = build_problem(make_preset("NR", n=21, u10=50.0, u20=50.0, t_end=0.003))
    traj = run(P, tc)
    assert P.m == 2 and traj.status == "completed" and len(traj.times) > 4
    assert len(passes) == len(traj.times)
    assert np.array_equal(traj.sup_norms[0], 4.0 * np.abs(P.initial).max(axis=1))
    dt_prev = tc.dt_init
    for i in range(1, len(traj.times)):
        proposed = mmrd.stepper.propose_dt(P, traj.sup_norms[i - 1].tolist(), tc, dt_prev)
        assert traj.dts[i] == min(proposed, tc.t_end - traj.times[i - 1])
        dt_prev = traj.dts[i]
    assert traj.dts[1] < 0.5 * mmrd.stepper.propose_dt(P, [50.0, 50.0], tc, tc.dt_init)

    passes.clear()
    P, tc = build_problem(make_preset("Pp_power", n=21, c=1e300))
    traj = run(P, tc)
    r = 4.0 * sup_norm(P.initial[0])
    assert len(passes) == len(traj.times) == 1 and traj.status == "solver_failure"
    assert f"ell({r:.6g}) / max(1, {r:.6g}) overflowed" in traj.note


@pytest.mark.parametrize("shape", [(1, 7), (2, 9), (1, 1), (2, 4, 3), (1, 3, 5)])
def test_recorded_norms_and_minima_are_bitwise_the_per_component_ones(shape):
    """One max and one min reduction give each component's sup norm and
    minimum bit for bit, signed zeros, infinities and NaN included (-0.0
    and NaN norms lose their sign, as under abs)."""
    rng = np.random.default_rng(sum(shape))
    pools = [(0.0, -0.0), (-0.0, -2.5), (-0.0, np.inf), (-0.0, -np.inf, 1.5),
             (np.nan, -0.0, 1.5), (-np.nan, -0.0, -2.5),
             (0.0, -0.0, 1.5, -2.5, np.inf, -np.inf, np.nan)]
    for pool in pools:
        for _ in range(40):
            S = rng.choice(np.array(pool), size=shape)
            sups, mins = mmrd.stepper._extremes(S)
            expected_sups = [sup_norm(S[k]) for k in range(shape[0])]
            expected_mins = [float(S[k].min()) for k in range(shape[0])]
            assert np.array(sups).tobytes() == np.array(expected_sups).tobytes()
            assert np.array(mins).tobytes() == np.array(expected_mins).tobytes()


def test_run_records_norms_and_minima_of_each_sample_bitwise():
    """A two-component run records, at every sample, the sup norms and
    minima of the state its observer sees."""
    seen = []
    P, tc = build_problem(make_preset("NR", n=21, t_end=0.01))
    traj = run(P, tc, observer=lambda t, S: seen.append(S.copy()) or {})
    assert len(seen) == len(traj.times) == 11
    for S, sups, mins in zip(seen, traj.sup_norms, traj.min_values):
        assert sups.tobytes() == np.array([sup_norm(S[k]) for k in range(2)]).tobytes()
        assert mins.tobytes() == np.array([float(S[k].min()) for k in range(2)]).tobytes()


def test_non_finite_step_is_clamped_then_observed_once(monkeypatch):
    """A step that returns inf, -inf and NaN ends the run as a blow-up at
    that sample.  The sample holds the state clamped to the blow-up
    threshold, and the observer sees each sample once, the last one
    clamped."""
    thr = 1e3
    bad = np.zeros((2, 21))
    bad[0, 3], bad[0, 5], bad[1, 7], bad[1, 8] = np.inf, -np.inf, np.nan, -7.0
    calls = []

    def bad_step(P, S, dt, **kw):
        calls.append(dt)
        new = step(P, S, dt, **kw)
        return bad.copy() if len(calls) == 4 else new

    monkeypatch.setattr(mmrd.stepper, "step", bad_step)
    passes = []
    scale_recorded_norms(monkeypatch, 1.0, passes)
    seen = []
    P, tc = build_problem(make_preset("NR", n=21, t_end=0.05, blowup_threshold=thr))
    traj = run(P, tc, observer=lambda t, S: seen.append((t, S, S.copy())) or {"t": t})
    clamped = np.nan_to_num(bad, nan=thr, posinf=thr, neginf=-thr)
    assert (traj.status, traj.note) == ("blowup", "non-finite state encountered")
    assert len(traj.times) == 5 and len(passes) == 6
    assert [t for t, _, _ in seen] == traj.times.tolist() == traj.extras["t"].tolist()
    t, S, copy = seen[-1]
    assert S is traj.final_state and np.array_equal(copy, clamped)
    assert traj.sup_norms[-1].tolist() == [thr, thr]
    assert traj.min_values[-1].tolist() == [-thr, -7.0]


def record_starts(monkeypatch):
    """The Newton start of every ``_solve`` call, in order."""
    starts = []
    original = mmrd.stepper._solve

    def recording(ws, u, *args):
        starts.append(u.reshape((ws.m,) + ws.problem.mesh.shape).copy())
        return original(ws, u, *args)

    monkeypatch.setattr(mmrd.stepper, "_solve", recording)
    return starts


def lagrange(states, dts, h):
    """The polynomial through the states, each dts[i] after the one before
    it, evaluated h after the last one (Lagrange's form)."""
    times = np.concatenate([[0.0], np.cumsum(dts)])
    t = times[-1] + h
    total = np.zeros_like(states[0])
    for i, (ti, Si) in enumerate(zip(times, states)):
        weight = np.prod([(t - tj) / (ti - tj) for j, tj in enumerate(times) if j != i])
        total += weight * Si
    return total


def predicted_start(states, dts, h):
    """The Newton start after the accepted states (oldest first, dts[i]
    between states i and i + 1), by the predictor's rule with Lagrange's
    form as the reference: the sum of the first i terms of the Newton series
    is the polynomial through the newest i + 1 states, and the series stops
    before the first term that is zero or no smaller in max norm than the
    one before it.  Returns the start and the number of terms kept."""
    cap = mmrd.stepper.PREDICTOR_CAP
    start, last, kept = states[-1], np.inf, 0
    for i in range(1, min(cap, len(dts)) + 1):
        poly = lagrange(states[-i - 1:], dts[len(dts) - i:], h)
        size = float(np.abs(poly - start).max())
        if not 0.0 < size < last:
            break
        start, last, kept = poly, size, i
    return start, kept


def remembered(P, times, values):
    """A workspace that has accepted the states ``values`` (oldest first) at
    ``times``, as ``step`` leaves it."""
    ws = mmrd.stepper._Workspace(P)
    for k in range(1, len(times)):
        ws.remember(values[k - 1] if k == 1 else ws.out, values[k], times[k] - times[k - 1])
    return ws


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_predictor_reproduces_polynomials_of_degree_up_to_five(degree):
    """On a non-uniform history of six states the start is the polynomial
    through them, so it extends any polynomial in t of degree <= 5 exactly,
    to rounding."""
    P = rod_problem(n=11)
    rng = np.random.default_rng(degree)
    coef = rng.uniform(-1.0, 1.0, size=(degree + 1,) + P.initial.shape)
    times = 0.3 + np.cumsum([0.0, 0.01, 0.005, 0.02, 0.01, 0.015])
    values = [sum(c * t**k for k, c in enumerate(coef)) for t in times]
    ws = remembered(P, times, values)
    S, h = ws.out, 0.012
    start = mmrd.stepper._extrapolate(S, h, ws)
    want = sum(c * (times[-1] + h) ** k for k, c in enumerate(coef))
    scale = float(np.abs(want).max())
    assert float(np.abs(start - lagrange(values, np.diff(times), h)).max()) <= 1e-12 * scale
    assert float(np.abs(start - want).max()) <= 1e-12 * scale
    # the same values in another array start from that array
    foreign = S.copy()
    assert mmrd.stepper._extrapolate(foreign, h, ws) is foreign


def test_predictor_cuts_the_series_at_a_kink():
    """States min(t, t*) with the kink t* between the last two, 0.3 of a
    step after the older one: the first-order term extends the last
    difference (0.3 dt), the second-order term is larger (0.7 dt), so the
    start is the line through the last two states, not the polynomial
    through all six."""
    P = rod_problem(n=11)
    x = P.mesh.axes[0]
    times = np.cumsum([0.0, 0.01, 0.01, 0.015, 0.01, 0.01])
    kink = times[-2] + 0.003
    values = [np.minimum(t, kink) * (1.0 + x)[None] for t in times]
    ws = remembered(P, times, values)
    start = mmrd.stepper._extrapolate(ws.out, 0.01, ws)
    want, kept = predicted_start(values, np.diff(times), 0.01)
    assert kept == 1
    assert float(np.abs(start - want).max()) <= 1e-12 * float(np.abs(want).max())
    full = lagrange(values, np.diff(times), 0.01)
    assert float(np.abs(start - full).max()) > 1e-3


def test_predictor_starts_a_constant_history_from_the_state_itself():
    """Constant accepted states give only zero terms: the start is S, the
    very array, so the solve takes no forced Newton step."""
    P = rod_problem(n=11)
    values = [np.full(P.initial.shape, 3.7) for _ in range(7)]
    ws = remembered(P, np.cumsum([0.0, 1e-3, 2e-3, 1e-3, 5e-4, 1e-3, 1e-3]), values)
    assert mmrd.stepper._extrapolate(ws.out, 1e-3, ws) is ws.out


def test_newton_starts_from_the_extrapolated_accepted_states(monkeypatch):
    """Eight steps that each take the array the last one returned start
    from S, then from the polynomial through the last two, three, ...
    states, up to PREDICTOR_CAP + 1 of them, on a non-uniform grid, cut
    where its terms stop shrinking; a state the workspace did not return,
    and a step without workspace, start from S."""
    starts = record_starts(monkeypatch)
    P = plate_problem(n=11)
    ws = mmrd.stepper._Workspace(P)
    dts = [1e-3, 5e-4, 2e-3, 1e-3, 1.5e-3, 1e-3, 8e-4, 1e-3, 1e-3]
    states = [P.initial_state()]
    for dt in dts[:8]:
        states.append(step(P, states[-1], dt, workspace=ws))
    assert starts[0] is not states[0] and np.array_equal(starts[0], states[0])
    kept = []
    for k in range(1, 8):
        want, order = predicted_start(states[:k + 1], dts[:k], dts[k])
        kept.append(order)
        assert float(np.abs(starts[k] - want).max()) <= 1e-12 * float(np.abs(want).max())
    assert max(kept) > 2  # beyond a quadratic (the cap is reached in the retry test)
    # the same values in another array: the workspace cannot vouch for them
    foreign = states[-1].copy()
    step(P, foreign, dts[8], workspace=ws)
    step(P, foreign, dts[8])
    assert np.array_equal(starts[8], foreign) and np.array_equal(starts[9], foreign)


def test_extrapolated_start_keeps_small_states_accurate():
    """The stopping test is absolute below |u| = 1, and an extrapolated
    start can land just inside it.  It still takes a Newton step, which is
    exact for this linear problem (Dirichlet heat flow at amplitude 1e-4),
    so a run matches the steps that start from S to rounding."""
    P = scalar_problem(boundary=dirichlet_graph(), u0=lambda x: 1e-4 * np.sin(np.pi * x))
    traj = run(P, TimeControl(t_end=0.05))
    S = P.initial_state()
    for dt in traj.dts[1:]:
        S = step(P, S, dt)
    assert len(traj.dts) == 51
    assert float(np.abs(traj.final_state - S).max()) <= 1e-12 * float(np.abs(S).max())


def test_retry_after_solver_failure_extrapolates_with_the_halved_dt(monkeypatch):
    """A rejected attempt returns nothing, so its retry still extends the
    accepted states, now by the halved dt; a problem whose attempt succeeded
    but was discarded because another problem failed retries from S."""
    starts = record_starts(monkeypatch)
    P = plate_problem(n=11)
    Q = ProblemSpec(P.mesh, P.diffusion, P.reaction, P.interior, P.boundary, 0.5 * P.initial_state())
    calls = []  # (problem, S, dt) per step call
    fail = 14  # Q's seventh step, after P's seventh succeeded

    def failing_step(R, S, dt, **kw):
        calls.append((R, S, dt))
        if len(calls) == fail:
            raise SolverFailure("injected", 1.0)
        return step(R, S, dt, **kw)

    monkeypatch.setattr(mmrd.stepper, "step", failing_step)
    trajs = mmrd.stepper._advance([P, Q], TimeControl(t_end=0.008))
    assert all(traj.status == "completed" for traj in trajs)
    dt = calls[0][2]
    assert [c[0] for c in calls[:fail + 2]] == [P, Q] * (fail // 2 + 1)
    assert all(c[2] == dt for c in calls[:fail]) and calls[fail][2] == calls[fail + 1][2] == 0.5 * dt
    # starts: P, Q, ... P (kept until Q fails), then the retries of P and Q
    retry_P, retry_Q = starts[fail - 1], starts[fail]
    assert np.array_equal(retry_P, calls[fail][1])
    Q_states = [calls[i][1] for i in range(1, fail, 2)]
    want, kept = predicted_start(Q_states, [dt] * (len(Q_states) - 1), 0.5 * dt)
    assert kept == mmrd.stepper.PREDICTOR_CAP
    assert float(np.abs(retry_Q - want).max()) <= 1e-12 * float(np.abs(want).max())


def test_factors_of_another_problem_still_reach_the_solution():
    """Factors made for another problem of the same shape and dt serve only
    as a (possibly poor) chord matrix: the solve still stops within its
    tolerance of the fresh solve's state."""
    dt = 1e-3
    other = plate_problem(boundary=dirichlet_graph())
    P = plate_problem()
    primer = mmrd.stepper._Workspace(other)
    step(other, other.initial_state(), dt, workspace=primer)
    c = 1.0 + 2.0 * sum(dt / h**2 for h in P.mesh.spacing)
    assert primer.key == (c,)  # the primed factors are the ones the solve starts from
    workspace = mmrd.stepper._Workspace(P)
    workspace.lu, workspace.key = primer.lu, primer.key
    primed = step(P, P.initial_state(), dt, workspace=workspace)
    fresh = step(P, P.initial_state(), dt)
    # each state is within SOLVE_TOL * scale / (1 - kappa) of the exact one,
    # kappa = 1 - 1/c the contraction factor of the nodal fixed-point map
    scale = max(1.0, float(np.abs(fresh).max()))
    assert float(np.abs(primed - fresh).max()) <= 2.0 * SOLVE_TOL * c * scale
    assert oracle_step_residual(P, P.initial_state(), dt, primed) <= 1e-9


def test_halving_after_solver_failure_refactors(monkeypatch):
    """A halved dt changes the diagonal c, so the retried step factors the
    Newton matrix afresh before its first solve."""
    lapack = []
    count_calls(monkeypatch, "dpbtrf", lapack)
    count_calls(monkeypatch, "dpbtrs", lapack)
    calls = []  # (dt, LAPACK calls made) per step call

    def failing_step(P, S, dt, **kw):
        start = len(lapack)
        if len(calls) == 2:
            calls.append((dt, []))
            raise SolverFailure("injected", 1.0)
        U = step(P, S, dt, **kw)
        calls.append((dt, lapack[start:]))
        return U

    monkeypatch.setattr(mmrd.stepper, "step", failing_step)
    traj = run(plate_problem(n=11), TimeControl(t_end=0.003))
    assert traj.status == "completed"
    (dt_first, _), (dt_kept, kept), (dt_failed, _), (dt_retry, retry) = calls[:4]
    assert dt_first == dt_kept == dt_failed and dt_retry == 0.5 * dt_failed
    assert kept[0] == "dpbtrs"  # the second step starts from the first one's factors
    assert retry[0] == "dpbtrf"


def rod_problem(n=51):
    """1D twin of ``plate_problem``: dt stays at dt_init = 1e-3 for t <= 0.012."""
    mesh = build_mesh(1, [1.0], [n])
    u0 = 3.0 * np.exp(-((mesh.axes[0] - 0.5) ** 2) / 0.01)
    return ProblemSpec(mesh, (1.0,), power_reaction(3.0), (zero_graph(),),
                       (extended_power_graph(1.0, 2.5),), np.asarray([u0]))


def test_constant_dt_1d_run_keeps_its_factorization(monkeypatch):
    """The tridiagonal factors of a 1D run are kept like the banded ones:
    at constant dt the run factors at most once per two steps."""
    steps = []

    def recording_step(P, S, dt, **kw):
        U = step(P, S, dt, **kw)
        steps.append((S, dt, U))
        return U

    calls = []
    count_calls(monkeypatch, "_tridiag_factor", calls)
    monkeypatch.setattr(mmrd.stepper, "step", recording_step)
    P = rod_problem()
    traj = run(P, TimeControl(t_end=0.012))
    assert traj.status == "completed" and len(steps) == len(traj.times) - 1 == 12
    assert 0 < len(calls) <= len(steps) // 2
    for S, dt, U in steps:
        assert oracle_step_residual(P, S, dt, U) <= 1e-9


def test_1d_halving_after_solver_failure_refactors(monkeypatch):
    """In 1D too, the retried step after a halving factors afresh before
    its first solve, while the step before it solves with kept factors."""
    log = []
    count_calls(monkeypatch, "_tridiag_factor", log)
    count_calls(monkeypatch, "_tridiag_solve", log)
    calls = []  # (dt, factor and solve calls made) per step call

    def failing_step(P, S, dt, **kw):
        start = len(log)
        if len(calls) == 2:
            calls.append((dt, []))
            raise SolverFailure("injected", 1.0)
        U = step(P, S, dt, **kw)
        calls.append((dt, log[start:]))
        return U

    monkeypatch.setattr(mmrd.stepper, "step", failing_step)
    traj = run(rod_problem(n=11), TimeControl(t_end=0.003))
    assert traj.status == "completed"
    (dt_first, _), (dt_kept, kept), (dt_failed, _), (dt_retry, retry) = calls[:4]
    assert dt_first == dt_kept == dt_failed and dt_retry == 0.5 * dt_failed
    assert kept[0] == "_tridiag_solve"
    assert retry[0] == "_tridiag_factor"


unit_floats = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3, 41, 201]),
    log_mu=st.floats(-3.0, 3.0),
    data=st.data(),
)
def test_tridiagonal_factor_and_solve_match_dense_solve(n, log_mu, data):
    """The elimination without pivoting solves I - diag(slope) N / c, with
    resolvent slopes in [0, 1] and the 1D ghost-node weights N, as
    numpy.linalg.solve does."""
    mu = 10.0**log_mu
    up, down = np.full(n, mu), np.full(n, mu)
    up[0] = down[-1] = 2.0 * mu
    up[-1] = down[0] = 0.0
    c = 1.0 + 2.0 * mu
    slope = data.draw(arrays(np.float64, n, elements=unit_floats))
    b = data.draw(arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    sup, sub = slope[:-1] * up[:-1] / -c, slope[1:] * down[1:] / -c
    lu = mmrd.stepper._tridiag_factor(sub, sup)
    assert lu is not None
    got = mmrd.stepper._tridiag_solve(lu, b)
    A = np.eye(n) + np.diag(sup, 1) + np.diag(sub, -1)
    expect = np.linalg.solve(A, b)
    # both solves err by about cond(A) * eps, and cond(A) reaches about
    # 2c = 4e3 at mu = 1e3: 1e-13 relative holds up to cond(A) = 100
    tol = max(1e-13, 1e-15 * np.linalg.cond(A, np.inf))
    assert float(np.abs(got - expect).max()) <= tol * float(np.abs(expect).max())


def test_non_positive_pivot_leaves_no_tridiagonal_factors():
    """A pivot that is not finite and positive (here from a NaN slope, as a
    non-finite iterate gives) plays the role of dpbtrf's info != 0."""
    off = np.full(4, -0.5 / 3.0)
    assert mmrd.stepper._tridiag_factor(np.array([-0.5, np.nan, -0.5, -0.5]) / 3.0, off) is None
    assert mmrd.stepper._tridiag_factor(off, off) is not None


def clipped_plate_workspace(dt=0.05):
    """Workspace and Newton-matrix slopes of a two-component step on a 7 x 5
    mesh: component 0 is Dirichlet on the boundary (clipped rows there),
    component 1 has a binding obstacle inside and a power law on the
    boundary, at a state where about a third of its nodes sit on the
    obstacle's endpoints (clipped) and the rest strictly inside."""
    mesh = build_mesh(2, [1.0, 0.8], [7, 5])
    P = ProblemSpec(mesh, (1.0, 0.5), zero_reaction(2), (zero_graph(), obstacle_graph(1.0)),
                    (dirichlet_graph(), extended_power_graph(1.0, 2.5)),
                    np.zeros((2,) + mesh.shape))
    ws = mmrd.stepper._Workspace(P)
    ws.rescale(dt)
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(0.5, 2.0, ws.n),
                        np.clip(rng.uniform(-0.25, 1.5, ws.n), 0.0, 1.0)])
    slope = np.ones(ws.m * ws.n)
    for idx, R in ws.groups:
        slope[idx] = mmrd.graphs.resolvent_slope(x[idx], R)
    slope = slope.reshape(ws.m, ws.n)
    bmask = mesh.boundary_mask.ravel()
    assert (slope[0][bmask] == 0.0).all() and (slope[0][~bmask] == 1.0).all()
    assert (slope[1][~bmask] == 0.0).any() and (slope[1][~bmask] == 1.0).any()
    assert (slope[1][bmask] == 0.0).any() and ((slope[1] > 0.0) & (slope[1] < 1.0)).any()
    return P, ws, slope


def dense_newton_matrix(P, dt, slope):
    """I - diag(slope) N / c of the stacked components, N built node by node
    from the ghost-node stencil: mu = a dt / h^2 per neighbour, 2 mu from a
    boundary node to its inner neighbour."""
    (nx, ny), n = P.mesh.shape, slope.shape[1]
    blocks = []
    for k, a in enumerate(P.diffusion):
        mus = [a * dt / h**2 for h in P.mesh.spacing]
        c = 1.0 + 2.0 * sum(mus)
        N = np.zeros((n, n))
        for i in range(nx):
            for j in range(ny):
                p = i * ny + j
                for pos, count, mu, stride in ((i, nx, mus[0], ny), (j, ny, mus[1], 1)):
                    if pos + 1 < count:
                        N[p, p + stride] += mu * (2.0 if pos == 0 else 1.0)
                    if pos > 0:
                        N[p, p - stride] += mu * (2.0 if pos == count - 1 else 1.0)
        blocks.append(np.eye(n) - slope[k][:, None] * N / c)
    A = np.zeros((len(blocks) * n,) * 2)
    for k, block in enumerate(blocks):
        A[k * n:(k + 1) * n, k * n:(k + 1) * n] = block
    return A


def test_band_factor_and_solve_match_dense_solve():
    """The banded Cholesky of the symmetrized system solves the unsymmetric
    Newton matrix I - diag(R') N / c, clipped rows included, as
    numpy.linalg.solve does."""
    dt = 0.05
    P, ws, slope = clipped_plate_workspace(dt)
    A = dense_newton_matrix(P, dt, slope)
    factors = mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c)
    assert factors is not None
    rng = np.random.default_rng(11)
    for _ in range(3):
        b = rng.standard_normal(ws.m * ws.n)
        expect = np.linalg.solve(A, b)
        got = mmrd.stepper._band_solve(factors, b.copy())
        assert float(np.abs(got - expect).max()) <= 1e-12 * float(np.abs(expect).max())


def symmetrized_newton_matrix(P, slope, A):
    """W E^-1 A E with the off-diagonal entries of the clipped columns dropped
    (they move to the right-hand side), where W is the trapezoid weights
    relative to the interior's and E = diag(sqrt(R')), both 1 on the clipped
    nodes (R' = 0): the symmetric matrix that ``_band_factor`` factors."""
    d = slope.ravel()
    clipped = d == 0.0
    e = np.where(clipped, 1.0, np.sqrt(d))
    w_axes = [np.ones(k) for k in P.mesh.shape]
    for w in w_axes:
        w[0] = w[-1] = 0.5
    w = np.tile(np.multiply.outer(*w_axes).ravel(), slope.shape[0])
    M = np.where(clipped, 1.0, w / e)[:, None] * A * e[None, :]
    M[~np.eye(d.size, dtype=bool) & clipped[None, :]] = 0.0
    return M


def test_assembled_band_is_lower_half_of_symmetrized_newton_matrix(monkeypatch):
    """The band handed to dpbtrf holds the lower half of
    ``symmetrized_newton_matrix``, and that matrix is symmetric."""
    dt = 0.05
    P, ws, slope = clipped_plate_workspace(dt)
    A = dense_newton_matrix(P, dt, slope)
    bands = []
    original = mmrd.stepper.dpbtrf

    def recording(ab, **kw):
        bands.append(ab.copy())
        return original(ab, **kw)

    monkeypatch.setattr(mmrd.stepper, "dpbtrf", recording)
    assert mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c) is not None
    (band,) = bands
    bw = band.shape[0] - 1
    assert bw == P.mesh.shape[1]
    size = band.shape[1]
    lower = np.zeros((size, size))
    for d in range(bw + 1):
        lower[np.arange(d, size), np.arange(size - d)] = band[d, :size - d]

    expect = symmetrized_newton_matrix(P, slope, A)
    np.testing.assert_allclose(expect, expect.T, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(lower, np.tril(expect), rtol=1e-14, atol=0.0)


def test_band_factors_are_the_upper_band_of_the_transposed_factor_in_place(monkeypatch):
    """After dpbtrf has factored the lower band into L, ``_band_factor``
    rewrites L in the workspace's own buffer as the upper band storage of
    U = L^T, and ``_band_solve`` hands that buffer to dpbtrs as an upper
    band: U^T U is the symmetrized Newton matrix."""
    dt = 0.05
    P, ws, slope = clipped_plate_workspace(dt)
    A = dense_newton_matrix(P, dt, slope)
    calls = []
    original = mmrd.stepper.dpbtrs

    def recording(ab, b, **kw):
        calls.append((ab, kw))
        return original(ab, b, **kw)

    monkeypatch.setattr(mmrd.stepper, "dpbtrs", recording)
    factors = mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c)
    assert factors is not None
    mmrd.stepper._band_solve(factors, np.ones(ws.m * ws.n))
    ((band, kw),) = calls
    assert np.shares_memory(band, ws.ab)
    assert kw["lower"] == 0
    bw, size = band.shape[0] - 1, band.shape[1]
    upper = np.zeros((size, size))
    for d in range(bw + 1):  # entry (q - d, q) of U in row bw - d, column q
        upper[np.arange(size - d), np.arange(d, size)] = band[bw - d, d:]
    expect = symmetrized_newton_matrix(P, slope, A)
    got = upper.T @ upper
    assert float(np.abs(got - expect).max()) <= 1e-13 * float(np.abs(expect).max())


@settings(max_examples=60, deadline=None)
@given(
    counts=st.tuples(st.integers(3, 9), st.integers(3, 9)),
    m=st.sampled_from([1, 2]),
    log_mus=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    data=st.data(),
)
def test_band_factor_and_solve_match_dense_solve_for_any_slopes(counts, m, log_mus, data):
    """The banded Cholesky of the symmetrized system solves
    I - diag(slope) N / c of m stacked components on an nx x ny mesh, with
    resolvent slopes in [0, 1] (0 on clipped nodes) and the 2D ghost-node
    weights N, as numpy.linalg.solve does, for every mu = a dt / h^2 per
    axis and component in [1e-3, 1e3]."""
    # dt = 1 and a = 1 for component 0: mu = 1 / h^2 on each axis
    spacing = [10.0 ** (-0.5 * log_mu) for log_mu in log_mus]
    mesh = build_mesh(2, [(k - 1) * h for k, h in zip(counts, spacing)], counts)
    diffusion = (1.0,)
    if m == 2:
        diffusion += (10.0 ** data.draw(st.floats(-3.0 - min(log_mus), 3.0 - max(log_mus))),)
    P = ProblemSpec(mesh, diffusion, zero_reaction(m), (zero_graph(),) * m, (zero_graph(),) * m,
                    np.zeros((m,) + mesh.shape))
    ws = mmrd.stepper._Workspace(P)
    ws.rescale(1.0)
    slope = data.draw(arrays(np.float64, (m, ws.n), elements=unit_floats))
    b = data.draw(arrays(np.float64, m * ws.n, elements=st.floats(-1e3, 1e3)))
    factors = mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c)
    assert factors is not None
    got = mmrd.stepper._band_solve(factors, b.copy())
    A = dense_newton_matrix(P, 1.0, slope)
    expect = np.linalg.solve(A, b)
    # as in the tridiagonal test: both solves err by about cond(A) * eps;
    # below about 1e-290 the scaled right-hand sides and the substitutions
    # underflow to subnormal numbers, which carry no relative precision
    tol = max(1e-13, 1e-15 * np.linalg.cond(A, np.inf))
    assert float(np.abs(got - expect).max()) <= tol * max(float(np.abs(expect).max()), 1e-290)


def test_nan_slope_leaves_no_band_factors():
    """A NaN slope (as a non-finite iterate gives) makes dpbtrf's info != 0,
    which leaves no factors, as in 1D."""
    _, ws, slope = clipped_plate_workspace()
    assert mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c) is not None
    slope[1, 17] = np.nan
    assert mmrd.stepper._band_factor(ws.ab, ws.weight, slope, ws.coupling, ws.c) is None


def run_python(code: str):
    """Run ``code`` in a fresh interpreter that imports mmrd from this
    checkout, and return the JSON on its last line of stdout."""
    src = str(Path(mmrd.stepper.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_1d_runs_import_no_scipy_and_2d_steps_do():
    """The 1D Newton matrix is solved in Python, so importing mmrd and its
    CLI and running a 1D problem load no scipy module.  The first 2D step
    loads scipy's LAPACK extension from its file, and with it neither the
    ``scipy.linalg`` package nor ``scipy.sparse``; a later import of
    ``scipy.linalg.lapack`` still works and hands out the routines mmrd
    called."""
    code = """
        import importlib.machinery, json, sys
        import numpy as np
        import mmrd, mmrd.cli
        from mmrd.graphs import zero_graph
        from mmrd.mesh import build_mesh
        from mmrd.reactions import zero_reaction
        from mmrd.scenarios import build_problem, make_preset
        from mmrd.stepper import ProblemSpec, _lapack, run, step

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        P, tc = build_problem(make_preset("Pp_power", n=21))
        status = run(P, tc).status
        after_1d = scipy_modules()
        loaded_1d = _lapack.cache_info().currsize
        mesh = build_mesh(2, [1.0, 1.0], [5, 5])
        x, y = mesh.coords
        Q = ProblemSpec(mesh, (1.0,), zero_reaction(), (zero_graph(),), (zero_graph(),),
                        np.asarray([x + y]))
        step(Q, Q.initial_state(), 1e-2)
        after_2d = scipy_modules()
        # dpbtrf/dpbtrs call the routines of the module that _lapack cached
        lapack = _lapack()
        used = [lapack.__name__, lapack.__file__.endswith(tuple(importlib.machinery.EXTENSION_SUFFIXES)),
                loaded_1d, _lapack.cache_info().currsize]
        import scipy.linalg.lapack
        same = [scipy.linalg.lapack.dpbtrf is lapack.dpbtrf,
                scipy.linalg.lapack.dpbtrs is lapack.dpbtrs,
                scipy.linalg._flapack.dpbtrf is lapack.dpbtrf]
        print(json.dumps([status, after_1d, after_2d, used, same]))
        """
    status, after_1d, after_2d, used, same = run_python(code)
    assert status == "blowup"
    assert after_1d == []
    assert "scipy" in after_2d
    assert not [m for m in after_2d if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "sparse"])]
    assert used == ["scipy.linalg._flapack", True, 0, 1]
    assert same == [True, True, True]


def test_2d_solve_falls_back_to_scipy_linalg_lapack_bitwise():
    """When scipy's LAPACK extension file cannot be located, the 2D solve
    takes the routines from ``scipy.linalg.lapack`` and gives the direct
    load's results bit for bit."""
    code = """
        import json
        import numpy as np
        import mmrd.stepper
        from mmrd.graphs import extended_power_graph, zero_graph
        from mmrd.mesh import build_mesh
        from mmrd.reactions import power_reaction
        from mmrd.stepper import ProblemSpec, TimeControl, run

        mesh = build_mesh(2, [1.0, 1.0], [21, 21])
        x, y = mesh.coords
        u0 = 3.0 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.01)
        P = ProblemSpec(mesh, (1.0,), power_reaction(3.0), (zero_graph(),),
                        (extended_power_graph(1.0, 2.5),), np.asarray([u0]))

        def solve():
            traj = run(P, TimeControl(t_end=0.01))
            return [mmrd.stepper._lapack().__name__, len(traj.times),
                    traj.final_state.tobytes().hex(), traj.sup_norms.tobytes().hex()]

        direct = solve()

        def nowhere():
            raise ImportError("not found")

        mmrd.stepper._lapack.cache_clear()
        mmrd.stepper._flapack_path = nowhere
        print(json.dumps([direct, solve()]))
        """
    direct, fallback = run_python(code)
    assert direct[0] == "scipy.linalg._flapack"
    assert fallback[0] == "scipy.linalg.lapack"
    assert direct[1] > 5
    assert direct[1:] == fallback[1:]


def test_rerun_with_an_unrelated_run_between_is_bitwise_equal():
    """Each run owns its factors, so a run does not depend on what ran before."""
    P = plate_problem(n=21)
    other = ProblemSpec(P.mesh, P.diffusion, P.reaction, P.interior, P.boundary,
                        0.5 * P.initial_state())
    tc = TimeControl(t_end=0.01)
    first = run(P, tc)
    run(other, TimeControl(t_end=0.002))  # its last factors would serve P's first step
    second = run(P, tc)
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.sup_norms, second.sup_norms)
    assert np.array_equal(first.final_state, second.final_state)


KINDS = ("zero", "linear", "power", "dirichlet", "extended_power", "extended_neumann", "obstacle")

graph_params = st.fixed_dictionaries(
    {
        "alpha": st.floats(0.0, 5.0),
        "q": st.sampled_from([1.5, 2.0, 2.5, 3.0]) | st.floats(1.1, 4.0),
        "level": st.floats(0.05, 5.0),
        "slope": st.floats(0.0, 5.0),
    }
)


def _graph(kind, p):
    """The graph of this kind with its params taken from ``p`` by JSON name."""
    return MonotoneGraph(kind, tuple(p[name] for name in mmrd.graphs.KINDS[kind].params))


def _is_equilibrium(G, C):
    return G.contains(C) and float(G.g(C)) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    params=st.lists(graph_params, min_size=2, max_size=2),
    dim=st.sampled_from([1, 2]),
    log_mu=st.floats(-2.0, 2.0),
    level=st.floats(-2.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_solves_inclusion_and_keeps_order(kinds, params, dim, log_mu, level, seed):
    """Random built-in (interior, boundary) graph pairs, mu = a dt / h^2 in
    [1e-2, 1e2], 1D and 2D: the step solves every nodal inclusion (checked
    against an independent stencil and bisection), ordered data give ordered
    results, and equilibrium constants are fixed points."""
    beta, gamma = (_graph(k, p) for k, p in zip(kinds, params))
    mesh = build_mesh(1, [1.0], [9]) if dim == 1 else build_mesh(2, [1.0, 1.5], [6, 5])
    dt = 1e-2
    a = 10.0**log_mu * mesh.spacing[0] ** 2 / dt
    rng = np.random.default_rng(seed)
    S1 = rng.uniform(-2.0, 3.0, (1,) + mesh.shape)
    S2 = S1 + rng.uniform(0.0, 1.0, S1.shape) * (rng.random(S1.shape) < 0.7)
    # F(u) = u|u| is increasing, so S + dt F(S) keeps the order of the data
    P = ProblemSpec(mesh, (a,), power_reaction(3.0), (beta,), (gamma,), S1)
    U1, U2 = step(P, S1, dt), step(P, S2, dt)
    assert oracle_step_residual(P, S1, dt, U1) <= 1e-9
    assert oracle_step_residual(P, S2, dt, U2) <= 1e-9
    assert float(np.max(U1 - U2)) <= 1e-9

    C = level if _is_equilibrium(beta, level) and _is_equilibrium(gamma, level) else 0.0
    P0 = ProblemSpec(mesh, (a,), zero_reaction(), (beta,), (gamma,), S1)
    U0 = step(P0, np.full((1,) + mesh.shape, C), dt)
    assert float(np.max(np.abs(U0 - C))) <= 1e-12 * max(1.0, abs(C))


def test_power_weight_that_underflows_at_the_step_scale_gives_a_finite_step():
    """The plan keeps w * alpha = 100 * 5e-324 at unit scale, but at the
    step's scale s = dt / c it rounds to 0: the term must be dropped, or the
    slope at a boundary node clipped to 0 is 0 * inf for q < 2."""
    # the data project to 0 on the boundary, and r < 0 there keeps it at 0
    P = scalar_problem(n=51, boundary=extended_power_graph(5e-324, 1.5),
                       u0=lambda x: np.full_like(x, -1.0))
    S, dt = P.initial_state(), 1e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        U = step(P, S, dt)
    assert np.isfinite(U).all() and U[0, 0] == U[0, -1] == 0.0
    assert oracle_step_residual(P, S, dt, U) <= 1e-9


def alone(P: ProblemSpec, S: np.ndarray, dt: float, k: int):
    """Component k of P as a one-component problem without reaction, and
    the state it steps from: a step freezes the reaction at S, so component
    k solves the rows of a reaction-free step from S_k + dt F_k(S)."""
    Q = ProblemSpec(P.mesh, (P.diffusion[k],), zero_reaction(), (P.interior[k],),
                    (P.boundary[k],), P.initial[k : k + 1])
    return Q, S[k : k + 1] + dt * eval_reaction(P.reaction, S)[k : k + 1]


stacked_problems = st.fixed_dictionaries(
    {
        "m": st.sampled_from([2, 3]),
        "dim": st.sampled_from([1, 2]),
        "kinds": st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
                          min_size=3, max_size=3),
        "params": st.lists(graph_params, min_size=6, max_size=6),
        "log_a": st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        "scales": st.lists(st.sampled_from([1.0, 1e6]), min_size=3, max_size=3),
        "reacting": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def stacked_case(d):
    """(P, S1, S2, dt) with S1 <= S2: m components, each with its own
    built-in (interior, boundary) pair, diffusion a_k in [1e-2, 1e2] and
    data scale; no reaction, or at m = 2 the nuclear coupling nuclear(1, 1).
    The coupling's data are nonnegative: there F is quasimonotone and
    1 + dt (u2 - b) > 0, so S + dt F(S), the right side of the step, keeps
    the order of S."""
    m = d["m"]
    mesh = build_mesh(1, [1.0], [9]) if d["dim"] == 1 else build_mesh(2, [1.0, 1.5], [6, 5])
    graphs = [_graph(kind, p) for kind, p in
              zip((g for pair in d["kinds"] for g in pair), d["params"])]
    reacting = d["reacting"] and m == 2
    reaction = nuclear_reaction(1.0, 1.0) if reacting else zero_reaction(m)
    rng = np.random.default_rng(d["seed"])
    scale = np.asarray(d["scales"][:m]).reshape((m,) + (1,) * d["dim"])
    S1 = rng.uniform(0.0 if reacting else -2.0, 3.0, (m,) + mesh.shape) * scale
    S2 = S1 + rng.uniform(0.0, 1.0, S1.shape) * (rng.random(S1.shape) < 0.7) * scale
    P = ProblemSpec(mesh, tuple(10.0 ** la for la in d["log_a"][:m]), reaction,
                    tuple(graphs[0 : 2 * m : 2]), tuple(graphs[1 : 2 * m : 2]), S1)
    return P, S1, S2, 1e-2


def diagonal(P: ProblemSpec, dt: float, k: int) -> float:
    return 1.0 + 2.0 * sum(P.diffusion[k] * dt / h**2 for h in P.mesh.spacing)


@settings(max_examples=30, deadline=None)
@given(d=stacked_problems)
def test_stacked_step_solves_every_component_and_keeps_order(d):
    """One solve for all components: each component solves its own nodal
    inclusions to its own relative tolerance, whatever the scale of the
    others, and ordered data give ordered results."""
    P, S1, S2, dt = stacked_case(d)
    U1, U2 = step(P, S1, dt), step(P, S2, dt)
    for k in range(P.m):
        for S, U in ((S1, U1), (S2, U2)):
            residual = oracle_step_residual(*alone(P, S, dt, k), dt, U[k : k + 1])
            assert residual <= 1e-9 * max(1.0, float(np.abs(U[k]).max()))
        # each state is within SOLVE_TOL * (c - 1) * scale of the exact one
        scale = max(1.0, float(np.abs(U2[k]).max()))
        assert float(np.max(U1[k] - U2[k])) <= 2.0 * SOLVE_TOL * diagonal(P, dt, k) * scale


@settings(max_examples=100, deadline=None)
@given(d=stacked_problems)
def test_stacked_step_equals_solving_each_component_alone(d):
    """The components decouple within a step, so the stacked solve and the
    solve of each component as a problem of its own stop within their
    tolerances of the same exact state."""
    P, S, _, dt = stacked_case(d)
    U = step(P, S, dt)
    for k in range(P.m):
        V = step(*alone(P, S, dt, k), dt)[0]
        scale = max(1.0, float(np.abs(U[k]).max()), float(np.abs(V).max()))
        assert float(np.abs(U[k] - V).max()) <= 2.0 * SOLVE_TOL * diagonal(P, dt, k) * scale


def reactor_problem(n=21, scale=1.0):
    """The NR reactor, two components; dt stays at dt_init = 1e-3."""
    P, _ = build_problem(make_preset("NR", n=n))
    return ProblemSpec(P.mesh, P.diffusion, P.reaction, P.interior, P.boundary,
                       scale * P.initial_state())


def count_rescales(monkeypatch, log):
    original = mmrd.stepper._Workspace.rescale

    def counted(self, dt):
        log.append("rescale")
        return original(self, dt)

    monkeypatch.setattr(mmrd.stepper._Workspace, "rescale", counted)


def test_constant_dt_two_component_run_rescales_once(monkeypatch):
    """The per-dt setup is cached: a run whose dt never changes builds it
    once, at its first step."""
    log = []
    count_rescales(monkeypatch, log)
    traj = run(reactor_problem(), TimeControl(t_end=0.008))
    assert traj.status == "completed" and len(traj.times) - 1 == 8
    assert np.all(traj.dts[1:] == 1e-3)
    assert log == ["rescale"]


def test_two_component_halving_rescales_and_refactors_first(monkeypatch):
    """A halved dt misses the cache: the retried step rebuilds the per-dt
    setup, then factors afresh before its first solve, while the step before
    it reuses both."""
    log = []
    count_rescales(monkeypatch, log)
    count_calls(monkeypatch, "_tridiag_factor", log)
    count_calls(monkeypatch, "_tridiag_solve", log)
    calls = []  # (dt, calls made) per step call

    def failing_step(P, S, dt, **kw):
        start = len(log)
        if len(calls) == 2:
            calls.append((dt, []))
            raise SolverFailure("injected", 1.0)
        U = step(P, S, dt, **kw)
        calls.append((dt, log[start:]))
        return U

    monkeypatch.setattr(mmrd.stepper, "step", failing_step)
    traj = run(reactor_problem(), TimeControl(t_end=0.003))
    assert traj.status == "completed"
    (dt_first, first), (dt_kept, kept), (dt_failed, _), (dt_retry, retry) = calls[:4]
    assert dt_first == dt_kept == dt_failed and dt_retry == 0.5 * dt_failed
    assert first[:2] == ["rescale", "_tridiag_factor"]
    assert kept[0] == "_tridiag_solve" and "rescale" not in kept
    assert retry[:2] == ["rescale", "_tridiag_factor"]


def test_two_component_rerun_with_an_unrelated_run_between_is_bitwise_equal():
    """Each run owns its workspace, setup cache and factors included."""
    P, tc = reactor_problem(), TimeControl(t_end=0.01)
    first = run(P, tc)
    run(reactor_problem(scale=0.5), TimeControl(t_end=0.002))
    second = run(P, tc)
    assert np.array_equal(first.times, second.times)
    assert np.array_equal(first.sup_norms, second.sup_norms)
    assert np.array_equal(first.final_state, second.final_state)
