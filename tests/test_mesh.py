"""Tests for grids, quadrature, norms, and the graph-closed diffusion operator
of `tests/oracles.py` that the implicit step inverts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mmrd.errors import ConfigurationError
from mmrd.graphs import dirichlet_graph, extended_neumann_graph, extended_power_graph, zero_graph
from mmrd.mesh import Mesh, build_mesh, integrate, sup_norm
from mmrd.reactions import zero_reaction
from mmrd.stepper import ProblemSpec, step
from oracles import oracle_apply_diffusion


def test_build_mesh_1d_nodes():
    mesh = build_mesh(1, [1], [5.0])
    np.testing.assert_allclose(mesh.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.spacing == (0.25,)
    assert mesh == Mesh(1, (1.0,), (5,)) and type(mesh.counts[0]) is int


def test_build_mesh_2d_boundary_count():
    mesh = build_mesh(2, [1.0, 1.0], [3, 3])
    assert mesh.boundary_mask.sum() == 8
    assert mesh.shape == (3, 3)


def test_build_mesh_spacing():
    mesh = build_mesh(1, [2.0], [201])
    assert mesh.spacing[0] == pytest.approx(0.01)


@pytest.mark.parametrize("args", [
    (1, [1.0], [2], "counts"),
    (1, [-1.0], [5], "lengths"),
    (3, [1.0] * 3, [5] * 3, "dim"),
    (1, [1e-200], [11], "lengths"),
    (1, [1e200], [11], "lengths"),
    (2, [1.0, math.nan], [11, 11], "lengths"),
    (2, [1.0], [11, 11], "lengths"),
])
def test_build_mesh_rejects_bad_sizes(args):
    # a mesh checks itself and names the field at fault; one of length
    # 1e-200 was built, and then run() raised ZeroDivisionError on it
    *mesh_args, field = args
    for make in (Mesh, build_mesh):
        with pytest.raises(ConfigurationError, match=rf"^{field}: "):
            make(*mesh_args)


def test_integrate_constant_and_linear_exact():
    mesh = build_mesh(1, [1.0], [11])
    assert integrate(mesh, np.ones(11)) == pytest.approx(1.0, abs=1e-14)
    assert integrate(mesh, mesh.axes[0]) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("counts", [(3,), (40,), (7, 5), (33, 17)])
def test_integrate_is_bitwise_the_sum_of_weighted_values(counts):
    mesh = build_mesh(len(counts), [1.3] * len(counts), counts)
    f = np.random.default_rng(len(counts)).normal(size=mesh.shape)
    assert integrate(mesh, f) == float(np.sum(mesh.quad_weights * f))


def test_integrate_sine_second_order():
    mesh = build_mesh(1, [1.0], [201])
    f = np.sin(np.pi * mesh.axes[0])
    assert integrate(mesh, f) == pytest.approx(2.0 / np.pi, abs=1e-4)


def test_integrate_2d_tensorized():
    mesh = build_mesh(2, [1.0, 2.0], [21, 31])
    x, y = mesh.coords
    assert integrate(mesh, np.ones(mesh.shape)) == pytest.approx(2.0, abs=1e-12)
    assert integrate(mesh, x * y) == pytest.approx(0.5 * 2.0, abs=1e-12)


def test_norms():
    assert sup_norm(np.array([-1.0, 2.0, -3.0])) == 3.0


def test_apply_diffusion_linear_is_flat_interior():
    mesh = build_mesh(1, [1.0], [21])
    res = oracle_apply_diffusion(mesh, 3.0 * mesh.axes[0] + 1.0, 1.0, zero_graph())
    np.testing.assert_allclose(res[1:-1], 0.0, atol=1e-12)


def test_apply_diffusion_quadratic_exact():
    mesh = build_mesh(1, [1.0], [21])
    res = oracle_apply_diffusion(mesh, mesh.axes[0] ** 2, 1.0, zero_graph())
    np.testing.assert_allclose(res[1:-1], 2.0, atol=1e-10)


def test_apply_diffusion_dirichlet_boundary_rows():
    # with the Dirichlet graph the state must sit at 0 on the boundary; the
    # flux section is then free and reported as the minimal one (0)
    mesh = build_mesh(1, [1.0], [11])
    f = np.sin(np.pi * mesh.axes[0])
    f[0] = f[-1] = 0.0
    res = oracle_apply_diffusion(mesh, f, 1.0, dirichlet_graph())
    assert res[0] == pytest.approx(2.0 * f[1] / mesh.spacing[0] ** 2)


def test_apply_diffusion_symmetric_on_interior():
    # <A f, g> = <f, A g> for fields supported away from the boundary
    mesh = build_mesh(1, [1.0], [41])
    rng = np.random.default_rng(5)
    f = np.zeros(41)
    g = np.zeros(41)
    f[2:-2] = rng.standard_normal(37)
    g[2:-2] = rng.standard_normal(37)
    Af = oracle_apply_diffusion(mesh, f, 1.0, zero_graph())
    Ag = oracle_apply_diffusion(mesh, g, 1.0, zero_graph())
    assert float(Af[1:-1] @ g[1:-1]) == pytest.approx(float(f[1:-1] @ Ag[1:-1]), rel=1e-12)


def test_apply_diffusion_convergence_order():
    errs = {}
    for n in (51, 101):
        mesh = build_mesh(1, [1.0], [n])
        x = mesh.axes[0]
        res = oracle_apply_diffusion(mesh, np.sin(np.pi * x), 1.0, dirichlet_graph())
        errs[n] = np.max(np.abs(res[1:-1] + np.pi**2 * np.sin(np.pi * x[1:-1])))
    order = math.log2(errs[51] / errs[101])
    assert order >= 1.9


def test_apply_diffusion_2d_quadratic():
    mesh = build_mesh(2, [1.0, 1.0], [15, 15])
    x, y = mesh.coords
    res = oracle_apply_diffusion(mesh, x**2 + 2.0 * y**2, 1.0, zero_graph())
    np.testing.assert_allclose(res[1:-1, 1:-1], 6.0, atol=1e-9)


def test_apply_diffusion_neumann_boundary_2d_linear():
    # f constant: all second differences vanish and the extended Neumann
    # graph contributes a zero section at positive boundary values
    mesh = build_mesh(2, [1.0, 1.0], [9, 9])
    res = oracle_apply_diffusion(mesh, np.full(mesh.shape, 2.5), 1.0, extended_neumann_graph())
    np.testing.assert_allclose(res, 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_step_inverts_the_graph_closed_diffusion(dim):
    # the implicit step solves U - dt * a Lap_h U = S with the boundary rows
    # closed by the same flux law (single-valued on U > 0 here)
    mesh = build_mesh(1, [1.0], [21]) if dim == 1 else build_mesh(2, [1.0, 1.5], [9, 7])
    a, dt, bc = 0.7, 1e-2, extended_power_graph(1.0, 2.5)
    S = 0.5 + np.random.default_rng(dim).random(mesh.shape)
    P = ProblemSpec(mesh, (a,), zero_reaction(), (zero_graph(),), (bc,), np.asarray([S]))
    U = step(P, P.initial_state(), dt)[0]
    np.testing.assert_allclose(U - dt * oracle_apply_diffusion(mesh, U, a, bc), S, atol=1e-8)


def test_field_shape_mismatch():
    mesh = build_mesh(1, [1.0], [11])
    with pytest.raises(ConfigurationError):
        integrate(mesh, np.ones(10))
