"""Tests for the comparison harness: assumption checks, co-evolution, ordering."""

from __future__ import annotations

import numpy as np
import pytest

import mmrd.stepper
from mmrd.compare import (
    blowup_order_experiment,
    check_assumptions,
    ordering_defect,
    run_pair,
)
from mmrd.errors import ConfigurationError
from mmrd.graphs import (
    dirichlet_graph,
    extended_neumann_graph,
    extended_power_graph,
    zero_graph,
)
from mmrd.mesh import build_mesh
from mmrd.reactions import lipschitz_bound, power_reaction, zero_reaction
from mmrd.spectral import principal_eigenpair
from mmrd.stepper import ProblemSpec, TimeControl, run, step


def make_problem(boundary, n=101, c=12.0, reaction=None, u0=None):
    mesh = build_mesh(1, [1.0], [n])
    ep = principal_eigenpair(mesh)
    if u0 is None:
        u0 = c * ep.phi1
    reaction = reaction or power_reaction(3.0)
    return ProblemSpec(mesh, (1.0,), reaction, (zero_graph(),), (boundary,),
                       np.asarray([u0]))


def test_check_assumptions_dirichlet_vs_power_mode_iii():
    P1 = make_problem(dirichlet_graph())
    P2 = make_problem(extended_power_graph(1.0, 2.5))
    rep = check_assumptions(P1, P2)
    assert rep.passed
    assert rep.a3[0].mode == "iii"
    assert rep.a2[0].mode in ("i", "ii")
    assert rep.a4_order.holds
    assert rep.l_m == lipschitz_bound(P1.reaction, rep.box_radius)


def test_check_assumptions_power_vs_neumann_mode_ii():
    P1 = make_problem(extended_power_graph(1.0, 2.5))
    P2 = make_problem(extended_neumann_graph())
    rep = check_assumptions(P1, P2)
    assert rep.passed
    assert rep.a3[0].mode == "ii"


def test_check_assumptions_identical_specs_mode_i():
    P1 = make_problem(extended_power_graph(1.0, 2.5))
    P2 = make_problem(extended_power_graph(1.0, 2.5))
    rep = check_assumptions(P1, P2)
    assert rep.passed
    assert rep.a3[0].mode == "i" and rep.a2[0].mode == "i"


def test_check_assumptions_rejects_unordered_initial_data():
    P1 = make_problem(dirichlet_graph(), c=13.0)
    P2 = make_problem(extended_power_graph(1.0, 2.5), c=12.0)
    rep = check_assumptions(P1, P2)
    assert not rep.a1_ok and not rep.passed
    assert rep.a1_violation > 0


def test_check_assumptions_incompatible_specs():
    P1 = make_problem(dirichlet_graph(), n=101)
    P2 = make_problem(dirichlet_graph(), n=51)
    with pytest.raises(ConfigurationError):
        check_assumptions(P1, P2)


def test_ordering_defect_values():
    S = np.zeros((2, 5))
    assert ordering_defect(S, S) == 0.0
    S2 = S.copy()
    S2[1, 3] = -0.5  # super-solution dips below
    assert ordering_defect(S, S2) == 0.5
    assert ordering_defect(S2, S) == 0.0  # S2 <= S everywhere


def test_run_pair_identical_specs_zero_defect():
    P1 = make_problem(extended_power_graph(1.0, 2.5), n=51)
    P2 = make_problem(extended_power_graph(1.0, 2.5), n=51)
    rep = run_pair(P1, P2, TimeControl(t_end=0.01, blowup_threshold=1e3))
    assert rep.max_defect == 0.0
    assert rep.ordering_ok and rep.gronwall_ok


def test_run_pair_trivial_solution_gives_positivity():
    P2 = make_problem(extended_power_graph(1.0, 2.5), n=51)
    P1 = make_problem(extended_power_graph(1.0, 2.5), n=51, u0=np.zeros(51))
    rep = run_pair(P1, P2, TimeControl(t_end=0.01, blowup_threshold=1e3))
    assert rep.max_defect <= 1e-12
    # the zero run stays exactly zero
    assert np.max(rep.traj_sub.sup_norms) == 0.0


def test_run_pair_ordered_boundary_pair_and_gronwall():
    P1 = make_problem(dirichlet_graph(), n=101)
    P2 = make_problem(extended_power_graph(1.0, 2.5), n=101)
    rep = run_pair(P1, P2, TimeControl(t_end=1.0, blowup_threshold=1e3))
    assert rep.ordering_ok
    assert rep.gronwall_ok
    # the super-solution blows up no later than the sub-solution
    assert rep.traj_super.status == "blowup"


def test_run_pair_requires_passing_assumptions():
    # swapped order: Neumann (larger) as sub, Dirichlet as super
    P1 = make_problem(extended_neumann_graph(), n=51)
    P2 = make_problem(dirichlet_graph(), n=51)
    with pytest.raises(ConfigurationError):
        run_pair(P1, P2, TimeControl(t_end=0.01))


def test_run_pair_swapped_pair_shows_positive_defect():
    # antisymmetry: with the strictly ordered pair swapped (and the checks
    # overridden) the defect becomes strictly positive at some step
    P1 = make_problem(extended_neumann_graph(), n=51)
    P2 = make_problem(dirichlet_graph(), n=51)
    assumptions = check_assumptions(P1, P2, a3_apriori=True, a4_apriori=True)
    rep = run_pair(P1, P2, TimeControl(t_end=0.005, blowup_threshold=1e3), assumptions=assumptions)
    assert rep.max_defect > 1e-3


def test_blowup_order_experiment_single_and_ordered():
    tc = TimeControl(t_end=1.0, blowup_threshold=1e3)
    single = blowup_order_experiment([make_problem(dirichlet_graph(), n=51)], tc)
    assert single.passed
    res = blowup_order_experiment(
        [
            make_problem(extended_neumann_graph(), n=51),
            make_problem(extended_power_graph(1.0, 2.5), n=51),
            make_problem(dirichlet_graph(), n=51),
        ],
        tc,
    )
    assert res.passed, res.failures
    assert res.t_blowups[0] <= res.t_blowups[1] + res.slack
    assert res.t_blowups[1] <= res.t_blowups[2] + res.slack


def test_blowup_order_experiment_reports_non_blowup():
    tc = TimeControl(t_end=0.001, blowup_threshold=1e3)
    res = blowup_order_experiment([make_problem(dirichlet_graph(), n=51, c=0.1)], tc)
    assert not res.passed
    assert "instead of blow-up" in res.failures[0]


def test_reaction_ordering_pair():
    # F1 = 0 <= F2 = u|u| holds on nonnegative states only: A4 fails on the
    # symmetric box, and the pair passes with A4 taken a priori
    P1 = make_problem(dirichlet_graph(), n=51, reaction=zero_reaction())
    P2 = make_problem(dirichlet_graph(), n=51)
    rep = check_assumptions(P1, P2)
    assert not rep.passed and rep.a4_order.status == "fails"
    k, U, f1, f2 = rep.a4_order.witness
    assert f1 > f2 and max(abs(u) for u in U) <= rep.box_radius
    rep = check_assumptions(P1, P2, a4_apriori=True)
    assert rep.passed
    pair = run_pair(P1, P2, TimeControl(t_end=1.0, blowup_threshold=1e3), assumptions=rep)
    assert pair.ordering_ok
    # the run stops when the super solution blows up
    assert pair.traj_super.status == "blowup"


def _assert_same_trajectory(a, b):
    for name in ("times", "dts", "sup_norms", "min_values", "final_state"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert (a.status, a.note) == (b.status, b.note)


@pytest.mark.parametrize("boundary, c, status", [
    (extended_neumann_graph(), 12.0, "blowup"),
    (dirichlet_graph(), 1.0, "completed"),
])
def test_run_pair_of_one_problem_repeats_run_bitwise(boundary, c, status):
    P = make_problem(boundary, n=31, c=c)
    tc = TimeControl(t_end=0.1, blowup_threshold=1e3)
    traj = run(P, tc)
    assert traj.status == status
    rep = run_pair(P, P, tc)
    _assert_same_trajectory(rep.traj_sub, traj)
    _assert_same_trajectory(rep.traj_super, traj)


@pytest.mark.parametrize("side", ["sub", "super"])
def test_non_finite_state_is_classified_alike_by_run_and_run_pair(monkeypatch, side):
    """The fifth accepted step of one problem returns inf: run and run_pair
    both clamp it, record it and call it a blow-up, as the sup norm rose."""

    def inf_at_call(k):
        calls = []

        def inf_step(P, S, dt, **kw):
            calls.append(dt)
            new = step(P, S, dt, **kw)
            return np.full_like(new, np.inf) if len(calls) == k else new

        monkeypatch.setattr(mmrd.stepper, "step", inf_step)

    P = make_problem(extended_neumann_graph(), n=31)
    tc = TimeControl(t_end=0.1, blowup_threshold=1e3)
    inf_at_call(5)
    traj = run(P, tc)
    assert (traj.status, traj.note) == ("blowup", "non-finite state encountered")
    inf_at_call(9 if side == "sub" else 10)  # run_pair steps sub, then super
    rep = run_pair(P, P, tc)
    hit = rep.traj_sub if side == "sub" else rep.traj_super
    assert (hit.status, hit.note) == (traj.status, traj.note)
    assert np.array_equal(hit.times, traj.times)
