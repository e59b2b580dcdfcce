"""Principal Dirichlet eigenpair and the Kaplan blow-up functionals.

The eigenpair (lambda1, phi1) of -Lap phi = lambda phi with phi = 0 on the
boundary is known in closed form on intervals and rectangles, both for the
continuous operator and for the interior discrete Laplacian of the uniform
grid, whose principal eigenvector is the continuous phi1 at the nodes.
phi1 is normalized so that its *discrete* integral over the domain equals
1, which is the normalization every functional below relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh, integrate

__all__ = [
    "EigenPair",
    "principal_eigenpair",
    "kaplan_y",
    "kaplan_z",
    "kaplan_threshold",
    "riccati_blowup_time",
    "check_nr_initial",
    "NrInitialVerdict",
]


@dataclass(frozen=True)
class EigenPair:
    """Principal Dirichlet eigenvalue and eigenfunction on the mesh.

    ``phi1`` is zero on the boundary, positive at interior nodes, and has
    discrete integral 1.  ``norm_residual`` is |integral(phi1) - 1| after
    normalization (rounding level by construction).  ``residual`` is the
    relative eigen-residual ||A phi - lambda1 phi|| / (lambda1 ||phi||) of
    the discrete interior operator; 0 for the analytic method where lambda1
    is exact.
    """

    mesh: Mesh
    lambda1: float
    phi1: np.ndarray
    method: str
    norm_residual: float
    residual: float

    @cached_property
    def weighted_phi1(self) -> np.ndarray:
        """The quadrature weights times phi1, so that the discrete integral
        of f * phi1 is one sum of f * weighted_phi1."""
        return self.mesh.quad_weights * self.phi1


def _eigen_residual(mesh: Mesh, phi: np.ndarray, lam: float) -> float:
    """Relative residual ||A phi - lam phi|| / (lam ||phi||) on interior
    nodes, A the 3-point (1D) / 5-point (2D) stencil of -Lap_h and phi zero
    on the boundary."""
    inner = (slice(1, -1),) * mesh.dim
    v = phi[inner]
    Av = np.zeros_like(v)
    for ax, h in enumerate(mesh.spacing):
        lo = inner[:ax] + (slice(None, -2),) + inner[ax + 1 :]
        hi = inner[:ax] + (slice(2, None),) + inner[ax + 1 :]
        Av += (2.0 * v - phi[lo] - phi[hi]) / h**2
    return float(np.linalg.norm(Av - lam * v)) / (lam * float(np.linalg.norm(v)))


def principal_eigenpair(mesh: Mesh, method: str = "analytic") -> EigenPair:
    """Compute (lambda1, phi1); ``method`` is "analytic" or "discrete".

    Both share phi1, the product over axes of sin(pi x / L) at the nodes.
    "analytic" pairs it with the continuous lambda1 = sum over axes of
    (pi / L)^2; "discrete" with the exact eigenvalue of the interior
    Dirichlet 3-point / 5-point Laplacian on the uniform tensor grid,
    lambda_h = sum over axes of (4 / h^2) sin^2(pi h / (2 L)).
    """
    if method not in ("analytic", "discrete"):
        raise ConfigurationError(f"unknown eigenpair method {method!r}")
    phi = np.ones(mesh.shape)
    for x, L in zip(mesh.coords, mesh.lengths):
        phi = phi * np.sin(math.pi * x / L)
    phi[mesh.boundary_mask] = 0.0
    if method == "analytic":
        lam = sum((math.pi / L) ** 2 for L in mesh.lengths)
        residual = 0.0
    else:
        lam = sum(
            4.0 / h**2 * math.sin(math.pi * h / (2.0 * L)) ** 2
            for h, L in zip(mesh.spacing, mesh.lengths)
        )
        residual = _eigen_residual(mesh, phi, lam)
    phi = phi / integrate(mesh, phi)
    return EigenPair(mesh, lam, phi, method, abs(integrate(mesh, phi) - 1.0), residual)


def _moment(f: np.ndarray, ep: EigenPair) -> float:
    """Discrete integral of f * phi1, by ``mesh.integrate``'s rule."""
    f = np.asarray(f)
    if f.shape != ep.mesh.shape:
        raise ConfigurationError(f"field shape {f.shape} does not match mesh {ep.mesh.shape}")
    return float(np.add.reduce(f * ep.weighted_phi1, axis=None))


def kaplan_y(u: np.ndarray, ep: EigenPair) -> float:
    """Kaplan moment: integral of u * phi1."""
    return _moment(u, ep)


def kaplan_z(u1: np.ndarray, u2: np.ndarray, a: float, b: float, ep: EigenPair) -> float:
    """Derivative-free form of z = y' + (b + lambda1) y for the two-component
    system: integral of (a*u1 + b*u2 - u2^2/2) * phi1."""
    if a <= 0 or b <= 0:
        raise ConfigurationError(f"kaplan_z needs a, b > 0, got a={a}, b={b}")
    u1 = np.asarray(u1)
    u2 = np.asarray(u2)
    return _moment(a * u1 + b * u2 - 0.5 * np.square(u2), ep)


def kaplan_threshold(p: float, lambda1: float) -> float:
    """Critical value of the Kaplan moment: lambda1^(1/(p-2)) for p > 2."""
    if p <= 2:
        raise ConfigurationError(f"kaplan threshold needs p > 2, got {p}")
    return lambda1 ** (1.0 / (p - 2.0))


def riccati_blowup_time(y0: float, c: float) -> float:
    """Blow-up time of y' = y (y - 2c) / 2, y(0) = y0, for c > 0.

    Separation of variables with partial fractions
    1/(y(y-2c)) = (1/(2c)) (1/(y-2c) - 1/y) gives
    t(Y) = (1/c) * log( (y0 / (y0-2c)) * ((Y-2c) / Y) ), so letting Y -> inf
    the blow-up time is (1/c) * log(y0 / (y0 - 2c)); +inf when y0 <= 2c.
    """
    if c <= 0:
        raise ConfigurationError(f"riccati_blowup_time needs c > 0, got {c}")
    if y0 <= 2.0 * c:
        return math.inf
    return math.log(y0 / (y0 - 2.0 * c)) / c


@dataclass(frozen=True)
class NrInitialVerdict:
    satisfied: bool
    failed: str | None  # None | "first" | "second"
    z0: float  # integral of (a*u10 + b*u20 - u20^2/2) phi1
    y0: float  # integral of u20 phi1
    y0_threshold: float  # 2 (b + lambda1)


def check_nr_initial(
    u10: np.ndarray, u20: np.ndarray, a: float, b: float, ep: EigenPair
) -> NrInitialVerdict:
    """Check the blow-up initial conditions for the two-component system:
    z(0) >= 0 and y(0) > 2 (b + lambda1)."""
    z0 = kaplan_z(u10, u20, a, b, ep)
    y0 = kaplan_y(u20, ep)
    thr = 2.0 * (b + ep.lambda1)
    if z0 < 0.0:
        return NrInitialVerdict(False, "first", z0, y0, thr)
    if not y0 > thr:
        return NrInitialVerdict(False, "second", z0, y0, thr)
    return NrInitialVerdict(True, None, z0, y0, thr)
