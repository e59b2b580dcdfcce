"""Tests for reaction terms, the structure condition and the growth envelope."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrd.errors import ConfigurationError
from mmrd.reactions import (
    check_order_F,
    check_sc,
    custom_reaction,
    ell,
    eval_reaction,
    lipschitz_bound,
    nuclear_reaction,
    power_reaction,
    zero_reaction,
)


def test_eval_power():
    F = power_reaction(3.0)
    assert eval_reaction(F, [2.0])[0] == pytest.approx(4.0)
    assert eval_reaction(F, [-2.0])[0] == pytest.approx(-4.0)
    assert eval_reaction(F, [0.0])[0] == 0.0


def test_eval_nuclear():
    F = nuclear_reaction(1.0, 1.0)
    out = eval_reaction(F, [2.0, 3.0])
    assert out[0] == pytest.approx(4.0)  # u1*u2 - b*u1
    assert out[1] == pytest.approx(2.0)  # a*u1
    assert np.all(eval_reaction(F, [0.0, 0.0]) == 0.0)


def test_eval_vectorized_over_grids():
    F = nuclear_reaction(2.0, 0.5)
    U = np.stack([np.linspace(0, 1, 7), np.linspace(1, 2, 7)])
    out = eval_reaction(F, U)
    assert out.shape == U.shape
    np.testing.assert_allclose(out[0], U[0] * U[1] - 0.5 * U[0])
    np.testing.assert_allclose(out[1], 2.0 * U[0])


def test_reaction_parameter_validation():
    with pytest.raises(ConfigurationError):
        power_reaction(2.0)
    with pytest.raises(ConfigurationError):
        nuclear_reaction(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        nuclear_reaction(-1.0, 1.0)
    nuclear_reaction(0.0, 1.0)  # a = 0 admitted (globally solvable regime)


def test_check_sc_nuclear_ok_with_expected_lipschitz():
    res = check_sc(nuclear_reaction(1.0, 1.0), 5.0)
    assert res.ok
    # true bound on |U|_inf <= 5 is max(a, b+M, M) = 6; returned value is
    # inflated by 10% and must not be undercut by the sampled lower bound
    assert res.l_m >= 6.0 - 1e-6
    assert res.l_m == pytest.approx(6.6, rel=1e-6)


def test_check_sc_off_diagonal_sign_on_nonneg_orthant():
    # dF1/du2 = u1 which is >= 0 exactly on the nonnegative orthant
    res = check_sc(nuclear_reaction(1.0, 1.0), 3.0)
    assert res.ok
    bad = custom_reaction(2, lambda U: np.stack([-U[1], np.zeros_like(U[0])]))
    res = check_sc(bad, 2.0)
    assert not res.ok
    k, j, U = res.witness
    assert (k, j) == (0, 1)


def test_check_sc_scalar_vacuous_off_diagonals():
    res = check_sc(power_reaction(3.0), 4.0)
    assert res.ok
    # |F'| = (p-1)M^(p-2) = 8 at the box edge
    assert res.l_m == pytest.approx(1.1 * 8.0, rel=1e-4)


def test_check_sc_reports_overflow_as_infinite_lipschitz_bound():
    with np.errstate(over="raise", invalid="raise"):
        res = check_sc(power_reaction(3.0), 1e300)
    assert res.ok and res.l_m == math.inf


def test_check_order_overflow_is_inconclusive_unless_reactions_are_equal():
    p3 = power_reaction(3.0)
    assert check_order_F(p3, power_reaction(3.0), 1e300).holds
    bigger = custom_reaction(1, lambda U: 2.0 * np.abs(U) * U)
    with np.errstate(over="raise", invalid="raise"):
        assert check_order_F(p3, bigger, 1e300).status == "inconclusive"


def test_check_order_examples():
    p3 = power_reaction(3.0)
    assert check_order_F(p3, p3, 5.0).holds
    bigger = custom_reaction(1, lambda U: np.abs(U) * U + np.maximum(U, 0.0))
    assert check_order_F(p3, bigger, 5.0).holds
    shifted = custom_reaction(1, lambda U: np.abs(U) * U + 1.0)
    v = check_order_F(shifted, p3, 5.0)
    assert v.status == "fails"
    k, U, f1, f2 = v.witness
    assert f1 > f2


def test_ell_closed_forms():
    assert ell(power_reaction(3.0), 2.0) == pytest.approx(6.0)
    assert ell(nuclear_reaction(1.0, 1.0), 3.0) == pytest.approx(12.0)
    assert ell(power_reaction(4.0), 0.0) == 0.0
    assert ell(zero_reaction(), 5.0) == pytest.approx(5.0)


def test_ell_and_lipschitz_bound_overflow_to_inf():
    F = power_reaction(3.0)
    assert ell(F, 1e300) == math.inf
    assert lipschitz_bound(power_reaction(4.0), 1e300) == math.inf
    assert ell(F, 1e100) == pytest.approx(1e200)


def test_ell_custom_sampled():
    F = custom_reaction(1, lambda U: np.abs(U) * U)  # |u|u, same envelope as power(3)
    assert ell(F, 2.0) == pytest.approx(6.0, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(0.0, 40.0),
    r2=st.floats(0.0, 40.0),
    kind=st.sampled_from(["zero", "power3", "power2.5", "nuclear"]),
)
def test_ell_nondecreasing(r1, r2, kind):
    F = {
        "zero": zero_reaction(),
        "power3": power_reaction(3.0),
        "power2.5": power_reaction(2.5),
        "nuclear": nuclear_reaction(0.7, 1.3),
    }[kind]
    lo, hi = sorted((r1, r2))
    assert ell(F, lo) <= ell(F, hi) + 1e-12


@settings(max_examples=60, deadline=None)
@given(u=st.floats(-30.0, 30.0), v=st.floats(-30.0, 30.0), p=st.floats(2.1, 4.0))
def test_power_reaction_odd_and_nondecreasing(u, v, p):
    F = power_reaction(p)
    fu = eval_reaction(F, [u])[0]
    assert fu == pytest.approx(-eval_reaction(F, [-u])[0], abs=1e-9)
    if u >= v:
        assert fu >= eval_reaction(F, [v])[0] - 1e-9


def test_lipschitz_bound_consistent_with_check_sc():
    for F, M in [(power_reaction(3.0), 4.0), (nuclear_reaction(1.0, 1.0), 5.0)]:
        sampled = check_sc(F, M).l_m
        assert lipschitz_bound(F, M) >= sampled / 1.1 - 1e-6
