"""Tests for eigenpairs, Kaplan functionals and the Riccati blow-up bound."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mmrd.errors import ConfigurationError
from mmrd.mesh import build_mesh, integrate
from mmrd.spectral import (
    check_nr_initial,
    kaplan_threshold,
    kaplan_y,
    kaplan_z,
    principal_eigenpair,
    riccati_blowup_time,
)


def test_analytic_interval_eigenvalue():
    mesh = build_mesh(1, [1.0], [201])
    ep = principal_eigenpair(mesh, "analytic")
    assert ep.lambda1 == pytest.approx(np.pi**2, rel=1e-14)
    assert ep.norm_residual <= 1e-10
    interior = ~mesh.boundary_mask
    assert np.all(ep.phi1[interior] > 0)
    assert np.all(ep.phi1[mesh.boundary_mask] == 0)


def test_analytic_square_eigenvalue():
    mesh = build_mesh(2, [1.0, 1.0], [41, 41])
    ep = principal_eigenpair(mesh, "analytic")
    assert ep.lambda1 == pytest.approx(2.0 * np.pi**2, rel=1e-14)
    assert integrate(mesh, ep.phi1) == pytest.approx(1.0, abs=1e-10)


def test_discrete_interval_converges_second_order():
    errs = {}
    for n in (101, 201, 401):
        ep = principal_eigenpair(build_mesh(1, [1.0], [n]), "discrete")
        errs[n] = abs(ep.lambda1 - np.pi**2)
        assert ep.norm_residual <= 1e-10
        assert ep.residual <= 1e-6
    assert math.log2(errs[101] / errs[201]) >= 1.9
    assert math.log2(errs[201] / errs[401]) >= 1.9
    assert errs[401] <= 1e-3 * np.pi**2


def test_discrete_rayleigh_quotient_consistency():
    mesh = build_mesh(1, [1.0], [101])
    ep = principal_eigenpair(mesh, "discrete")
    h = mesh.spacing[0]
    v = ep.phi1[1:-1]
    Av = (2.0 * v - np.concatenate(([0.0], v[:-1])) - np.concatenate((v[1:], [0.0]))) / h**2
    rayleigh = float(v @ Av) / float(v @ v)
    assert rayleigh == pytest.approx(ep.lambda1, abs=1e-8)


def test_discrete_2d_eigenvalue():
    ep = principal_eigenpair(build_mesh(2, [1.0, 1.0], [31, 31]), "discrete")
    assert ep.lambda1 == pytest.approx(2.0 * np.pi**2, rel=5e-3)
    assert np.all(ep.phi1[1:-1, 1:-1] > 0)


def test_kaplan_y_examples():
    mesh = build_mesh(1, [1.0], [201])
    ep = principal_eigenpair(mesh)
    assert kaplan_y(np.zeros(mesh.shape), ep) == 0.0
    assert kaplan_y(ep.phi1, ep) == pytest.approx(np.pi**2 / 8.0, abs=1e-4)
    assert kaplan_y(np.ones(mesh.shape), ep) == pytest.approx(1.0, abs=1e-10)


def test_kaplan_z_cancellation_identity():
    # with u1 = u2^2/(2a) and b = 1 the first and third terms cancel
    mesh = build_mesh(1, [1.0], [201])
    ep = principal_eigenpair(mesh)
    u2 = 1.0 + np.sin(np.pi * mesh.axes[0])
    a = 2.0
    u1 = u2**2 / (2.0 * a)
    assert kaplan_z(u1, u2, a, 1.0, ep) == pytest.approx(kaplan_y(u2, ep), abs=1e-12)
    assert kaplan_z(np.zeros_like(u2), np.zeros_like(u2), 1.0, 1.0, ep) == 0.0
    # constant u1 = c/a, u2 = 0 gives exactly c by the normalization
    assert kaplan_z(np.full_like(u2, 3.0 / a), np.zeros_like(u2), a, 1.0, ep) == pytest.approx(
        3.0, abs=1e-10
    )


@pytest.mark.parametrize("counts", [(21,), (101,), (13, 9)])
def test_kaplan_moments_agree_with_the_integral_formulas(counts):
    """y and z weigh the integrand by the cached w * phi1 in place of
    integrating f * phi1; they agree with that form to 1e-14 relative."""
    mesh = build_mesh(len(counts), [1.0, 0.8][:len(counts)], counts)
    ep = principal_eigenpair(mesh)
    rng = np.random.default_rng(3)
    a, b = 1.3, 0.7
    for _ in range(20):
        u1 = rng.uniform(0.0, 5.0, mesh.shape)
        u2 = rng.uniform(0.0, 1.0, mesh.shape)
        y = integrate(mesh, u2 * ep.phi1)
        z = integrate(mesh, (a * u1 + b * u2 - 0.5 * np.square(u2)) * ep.phi1)
        assert kaplan_y(u2, ep) == pytest.approx(y, rel=1e-14, abs=0.0)
        assert kaplan_z(u1, u2, a, b, ep) == pytest.approx(z, rel=1e-14, abs=0.0)
    assert np.array_equal(ep.weighted_phi1, mesh.quad_weights * ep.phi1)
    with pytest.raises(ConfigurationError, match="does not match mesh"):
        kaplan_y(np.ones(3), ep)


def test_kaplan_threshold():
    assert kaplan_threshold(3.0, np.pi**2) == pytest.approx(np.pi**2)
    assert kaplan_threshold(4.0, np.pi**2) == pytest.approx(np.pi)
    assert kaplan_threshold(7.3, 1.0) == 1.0
    with pytest.raises(ConfigurationError):
        kaplan_threshold(2.0, 1.0)


def test_riccati_blowup_time_closed_form():
    assert riccati_blowup_time(2.0, 1.0) == math.inf
    assert riccati_blowup_time(1.0, 1.0) == math.inf
    assert riccati_blowup_time(4.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_riccati_against_ode_oracle():
    # integrate y' = y(y-2c)/2 with a stiff solver up to a large cutoff and
    # compare against the closed-form partial time
    for y0, c in ((4.0, 1.0), (25.0, 10.875), (6.0, 2.5)):
        cutoff = 1e7

        def rhs(t, y):
            return 0.5 * y * (y - 2.0 * c)

        def arrival(t, y):
            return y[0] - cutoff

        arrival.terminal = True
        arrival.direction = 1.0
        sol = solve_ivp(rhs, (0.0, 10.0), [y0], method="LSODA", events=arrival,
                        rtol=1e-10, atol=1e-10)
        t_from_ode = sol.t_events[0][0]
        t_closed = (1.0 / c) * math.log((y0 / (y0 - 2.0 * c)) * ((cutoff - 2.0 * c) / cutoff))
        assert t_from_ode == pytest.approx(t_closed, rel=1e-6)
        # the tail beyond the cutoff is negligible against the full T*
        assert riccati_blowup_time(y0, c) == pytest.approx(
            t_closed + (1.0 / c) * math.log(cutoff / (cutoff - 2.0 * c)), rel=1e-12
        )


def test_riccati_strictly_decreasing_and_divergent():
    c = 1.3
    ys = np.linspace(2.0 * c + 1e-6, 50.0, 40)
    ts = [riccati_blowup_time(float(y), c) for y in ys]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert ts[0] > 10.0  # diverges as y0 approaches 2c


def test_check_nr_initial_cases():
    mesh = build_mesh(1, [1.0], [201])
    ep = principal_eigenpair(mesh)
    a = b = 1.0
    # u20 = 0 violates the second condition
    zeros = np.zeros(mesh.shape)
    v = check_nr_initial(zeros, zeros, a, b, ep)
    assert not v.satisfied and v.failed == "second"
    # the pointwise sufficient condition u10 >= u20^2/(2a) with large u20
    u20 = 20.0 * ep.phi1
    u10 = u20**2 / (2.0 * a) + 1.0
    v = check_nr_initial(u10, u20, a, b, ep)
    assert v.satisfied
    # the desk-scale blow-up data: y0 = 18*pi^2/8 > 2(1+pi^2)
    u20 = 18.0 * ep.phi1
    u10 = np.full(mesh.shape, 400.0)
    v = check_nr_initial(u10, u20, a, b, ep)
    assert v.satisfied
    assert v.y0 == pytest.approx(18.0 * np.pi**2 / 8.0, rel=1e-4)
    assert v.y0_threshold == pytest.approx(2.0 * (1.0 + np.pi**2), rel=1e-12)
