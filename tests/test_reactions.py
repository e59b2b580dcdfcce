"""Tests for reaction terms, the bound L_M of the structure condition and the growth envelope."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmrd.errors import ConfigurationError
from mmrd.reactions import (
    Reaction,
    check_order_F,
    ell,
    eval_reaction,
    lipschitz_bound,
    nuclear_reaction,
    power_reaction,
    zero_reaction,
)
from oracles import oracle_order_excess, oracle_partials


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


@pytest.mark.parametrize("shape", [(2,), (2, 9), (2, 5, 4), "list"])
def test_eval_nuclear_is_bitwise_the_stacked_formula(shape):
    """The nuclear reaction, filled in place, equals the formula
    stack([u1*u2 - b*u1, a*u1]) bit for bit, and leaves U alone."""
    F = nuclear_reaction(1.7, 0.3)
    rng = np.random.default_rng(11)
    U = rng.normal(scale=3.0, size=(2, 6) if shape == "list" else shape)
    U.flat[0], U.flat[-1] = -0.0, 0.0
    arg = U.tolist() if shape == "list" else U
    before = U.copy()
    out = eval_reaction(F, arg)
    expected = np.stack([U[0] * U[1] - F.b * U[0], F.a * U[0]])
    assert out.shape == U.shape and out.dtype == np.float64
    assert out.tobytes() == expected.tobytes()
    assert U.tobytes() == before.tobytes()


def test_reaction_parameter_validation():
    with pytest.raises(ConfigurationError):
        power_reaction(2.0)
    with pytest.raises(ConfigurationError):
        nuclear_reaction(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        nuclear_reaction(-1.0, 1.0)
    nuclear_reaction(0.0, 1.0)  # a = 0 admitted (globally solvable regime)
    # a Reaction checks itself: its kind, its component count and its params
    for kwargs in [
        dict(kind="custom", m=1),
        dict(kind="power", m=2, p=3.0),
        dict(kind="nuclear", m=2, a=1.0, b=0.0),
        dict(kind="zero", m=0),
        dict(kind="power", m=1, p=float("nan")),
        dict(kind="zero", m=1, p=3.0),
        dict(kind="power", m=1, p=3.0, b=1.0),
    ]:
        with pytest.raises(ConfigurationError):
            Reaction(**kwargs)


def test_lipschitz_bound_nuclear_on_the_box():
    # the exact bound on |U|_inf <= 5 is max(a, b + M, M) = 6
    assert lipschitz_bound(nuclear_reaction(1.0, 1.0), 5.0) == 6.0


def test_nuclear_off_diagonal_partials_nonnegative_on_the_orthant():
    # dF1/du2 = u1 and dF2/du1 = a are >= 0 on the nonnegative orthant
    F = nuclear_reaction(1.0, 1.0)
    partials = oracle_partials(F, 0.0, 3.0)
    assert partials[0, 1].min() >= 0.0 and partials[1, 0].min() >= 0.0
    assert lipschitz_bound(F, 3.0) == 4.0


def test_lipschitz_bound_power_at_the_box_edge():
    # |F'| = (p-1)M^(p-2) = 8 at the box edge
    assert lipschitz_bound(power_reaction(3.0), 4.0) == 8.0


def test_lipschitz_bound_overflows_to_inf():
    with np.errstate(over="raise", invalid="raise"):
        assert lipschitz_bound(power_reaction(4.0), 1e300) == math.inf
        assert lipschitz_bound(power_reaction(3.0), 1e300) == 2e300


def test_check_order_on_an_overflowing_box():
    # equal reactions hold; unequal ones fail, even where every grid value
    # of the excess overflows (inf - inf)
    p3 = power_reaction(3.0)
    with np.errstate(over="raise", invalid="raise"):
        assert check_order_F(p3, power_reaction(3.0), 1e300).holds
        assert check_order_F(p3, power_reaction(4.0), 1e300).status == "fails"


def test_check_order_examples():
    p3 = power_reaction(3.0)
    assert check_order_F(p3, p3, 5.0).holds
    # zero <= u|u| holds for u >= 0 only, so it fails on the symmetric box
    v = check_order_F(zero_reaction(), p3, 5.0)
    assert v.status == "fails"
    k, U, f1, f2 = v.witness
    assert f1 > f2 and U[0] < 0
    # F1 - F2 = 1e-14 * u1 > 0 at every u1 > 0
    v = check_order_F(nuclear_reaction(1.0, 1.0), nuclear_reaction(1.0, 1.0 + 1e-14), 3.0)
    assert v.status == "fails"
    k, U, f1, f2 = v.witness
    assert k == 0 and U[0] > 0 and f1 > f2
    with pytest.raises(ConfigurationError):
        check_order_F(p3, zero_reaction(2), 1.0)


def test_ell_closed_forms():
    assert ell(power_reaction(3.0), 2.0) == pytest.approx(6.0)
    assert ell(nuclear_reaction(1.0, 1.0), 3.0) == pytest.approx(12.0)
    assert ell(power_reaction(4.0), 0.0) == 0.0
    assert ell(zero_reaction(), 5.0) == pytest.approx(5.0)


@pytest.mark.parametrize("a, b, r", [(0.0, 1.0, 1.0), (1.0, 1.0, 3.0), (2.5, 0.01, 0.4), (0.7, 1.3, 40.0)])
def test_ell_nuclear_is_the_one_sided_bound_on_the_orthant(a, b, r):
    # a r + r^2, exactly: F1 <= r^2 and F2 <= a r on [0, r]^2, with no r term
    # and no b, which r + sup|F| on the box (3 at a = 0, b = r = 1) would have
    F = nuclear_reaction(a, b)
    assert ell(F, r) == a * r + r * r
    u = np.linspace(0.0, r, 41)
    U = np.stack([np.repeat(u, u.size), np.tile(u, u.size)])
    F1, F2 = eval_reaction(F, U)
    assert F1.max() <= r * r and F2.max() <= a * r


def test_ell_and_lipschitz_bound_overflow_to_inf():
    F = power_reaction(3.0)
    assert ell(F, 1e300) == math.inf
    assert lipschitz_bound(power_reaction(4.0), 1e300) == math.inf
    assert ell(F, 1e100) == pytest.approx(1e200)


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


# built-in reactions: zero or power with one component, zero or nuclear with two
scalar_reactions = st.just(zero_reaction(1)) | st.floats(2.05, 6.0).map(power_reaction)
pair_reactions = st.just(zero_reaction(2)) | st.builds(
    nuclear_reaction, st.floats(0.0, 5.0), st.floats(0.01, 5.0))
reactions = scalar_reactions | pair_reactions
box_radii = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(pair=st.tuples(scalar_reactions, scalar_reactions) | st.tuples(pair_reactions, pair_reactions),
       R=box_radii)
@example(pair=(nuclear_reaction(1.0, 1.0), nuclear_reaction(1.0, 1.0 + 1e-14)), R=3.0)
@example(pair=(nuclear_reaction(0.0, 0.010000000000000002), nuclear_reaction(0.0, 0.01)), R=1.0)
def test_check_order_fails_wherever_the_sampled_excess_is_positive(pair, R):
    """Unequal reactions fail, and a sampled excess proves that they do.
    The witness is a float demonstration: it may be missing only where the
    excess is at the rounding level of the values."""
    F1, F2 = pair
    verdict = check_order_F(F1, F2, R)
    assert verdict.holds == (F1 == F2)
    excess, size = oracle_order_excess(F1, F2, R)
    if excess > 0:
        assert verdict.status == "fails"
    if excess > 1e-12 * size:
        assert verdict.witness is not None
    if verdict.witness is not None:
        k, U, f1, f2 = verdict.witness
        assert f1 > f2 and max(abs(u) for u in U) <= R


@settings(max_examples=200, deadline=None)
@given(F=reactions, R=box_radii)
def test_lipschitz_bound_covers_sampled_partials(F, R):
    """The bound is at least every sampled |partial| on the box, and
    attained near its corners."""
    bound = lipschitz_bound(F, R)
    sampled = float(np.max(np.abs(oracle_partials(F, -R, R))))
    assert sampled <= bound * (1.0 + 1e-9)
    assert sampled >= 0.99 * bound


@settings(max_examples=200, deadline=None)
@given(F=reactions, R=box_radii)
def test_sampled_off_diagonal_partials_are_nonnegative_on_the_orthant(F, R):
    """The structure condition that every kind meets: quasimonotone on [0, R]^m."""
    partials = oracle_partials(F, 0.0, R)
    for k in range(F.m):
        for j in range(F.m):
            if j != k:
                assert partials[k, j].min() >= -1e-9 * max(1.0, R)
