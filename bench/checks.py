"""Correctness checks the benchmark applies to mmrd's outputs.

Every check here is computed apart from mmrd: trapezoid weights, reaction
values, boundary fluxes, eigenvalues and bounds are evaluated with numpy
from their closed forms, never through mmrd's own functions.  Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

# The balance identity holds up to the implicit solve's stopping rule and
# rounding.  Defects are measured relative to max(1, mass); on every
# workload they stay below 1e-10, while a state nudged by 1e-3 at one
# interior node (mass change 1e-3 * h, h <= 0.1) reads above 1e-6.
BALANCE_TOL = 1e-9


def trapezoid_weights(n: int, length: float = 1.0) -> np.ndarray:
    h = length / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def power_F(u: np.ndarray, p: float) -> np.ndarray:
    """The scalar reaction |u|^(p-2) u."""
    return np.abs(u) ** (p - 2.0) * u


def boundary_flux(u: np.ndarray, law: tuple) -> np.ndarray:
    """A selection of gamma(u) for the one-sided laws used on positive data:
    ("neumann",) is 0 and ("power", alpha, q) is alpha * max(u, 0)^(q-1)."""
    if law[0] == "neumann":
        return np.zeros_like(u)
    _, alpha, q = law
    return alpha * np.maximum(u, 0.0) ** (q - 1.0)


def balance_defects_1d(times, states, p: float, law: tuple, length: float = 1.0) -> np.ndarray:
    """|M_{k+1} - M_k - dt_k (sum w F(u_k) - gamma(u_{k+1}) at both ends)| per
    step, divided by max(1, |M_{k+1}|).

    ``states`` has shape (K + 1, n): the scalar state at every accepted step.
    """
    U = np.asarray(states, dtype=float)
    w = trapezoid_weights(U.shape[1], length)
    mass = U @ w
    source = power_F(U, p) @ w
    flux = boundary_flux(U[:, 0], law) + boundary_flux(U[:, -1], law)
    return _scaled_defects(times, mass, source, flux)


def _scaled_defects(times, mass, source, flux) -> np.ndarray:
    dt = np.diff(np.asarray(times, dtype=float))
    defect = np.abs(np.diff(mass) - dt * (source[:-1] - flux[1:]))
    return defect / np.maximum(1.0, np.abs(mass[1:]))


def balance_defects_2d(times, states, p: float, law: tuple, lengths=(1.0, 1.0)) -> np.ndarray:
    """2D form of ``balance_defects_1d``.  The boundary integral is a 1D
    trapezoid sum along each of the four faces, so a corner node is counted
    on both faces that meet there, with half a cell from each."""
    U = np.asarray(states, dtype=float)
    wx = trapezoid_weights(U.shape[1], lengths[0])
    wy = trapezoid_weights(U.shape[2], lengths[1])
    W = np.multiply.outer(wx, wy)
    mass = np.einsum("kij,ij->k", U, W)
    source = np.einsum("kij,ij->k", power_F(U, p), W)
    g = lambda face: boundary_flux(face, law)  # noqa: E731
    flux = (
        g(U[:, 0, :]) @ wy + g(U[:, -1, :]) @ wy + g(U[:, :, 0]) @ wx + g(U[:, :, -1]) @ wx
    )
    return _scaled_defects(times, mass, source, flux)


def check_balance(name: str, defects: np.ndarray) -> list[str]:
    worst = float(np.max(defects, initial=0.0))
    if not worst <= BALANCE_TOL:
        return [f"{name}: balance identity broken, worst scaled defect {worst:.3e} > {BALANCE_TOL:g}"]
    return []


def check_nonnegative(name: str, values) -> list[str]:
    low = float(np.min(values))
    return [] if low >= 0.0 else [f"{name}: negative value {low:.3e}"]


def check_blowup_times(t_neumann, t_power, t_dirichlet, u0, lambda1_phi_moment, slack) -> list[str]:
    """Ordering and analytic bounds for the scalar problem u_t = Lap u + u^2.

    ``u0`` is the initial state on a uniform grid of [0, 1] and
    ``lambda1_phi_moment`` is y0 = integral of u0 * phi1 with phi1 the
    continuous principal eigenfunction normalised to integral 1.
    """
    out = []
    if not (t_neumann <= t_power + slack and t_power <= t_dirichlet + slack):
        out.append(
            f"blow-up order broken: T_N={t_neumann:.6g}, T_gamma={t_power:.6g}, "
            f"T_D={t_dirichlet:.6g}, slack {slack:.3g}"
        )
    lower = 1.0 / float(np.max(np.abs(u0)))
    for label, t in (("N", t_neumann), ("gamma", t_power), ("D", t_dirichlet)):
        if not t >= lower - slack:
            out.append(f"T_{label}={t:.6g} below the ODE bound 1/|u0|={lower:.6g}")
    mass0 = float(trapezoid_weights(len(u0)) @ u0)
    if not t_neumann <= 1.0 / mass0 + slack:
        out.append(f"T_N={t_neumann:.6g} above the mass bound 1/M0={1.0 / mass0:.6g}")
    lam = math.pi**2
    y0 = lambda1_phi_moment
    kaplan = math.log(y0 / (y0 - lam)) / lam if y0 > lam else math.inf
    if not t_dirichlet <= kaplan + slack:
        out.append(f"T_D={t_dirichlet:.6g} above the Kaplan bound {kaplan:.6g}")
    return out


def kaplan_moment(u0: np.ndarray) -> float:
    """y0 = integral of u0 * phi1 on [0, 1], phi1 = (pi/2) sin(pi x)."""
    x = np.linspace(0.0, 1.0, len(u0))
    return float(trapezoid_weights(len(u0)) @ (u0 * 0.5 * math.pi * np.sin(math.pi * x)))


def discrete_lambda1_2d(n: int, length: float = 1.0) -> float:
    """Principal eigenvalue of the 5-point Dirichlet Laplacian on an n x n
    grid of the square: (8 / h^2) sin^2(pi h / 2)."""
    h = length / (n - 1)
    return 8.0 / h**2 * math.sin(math.pi * h / 2.0) ** 2


def check_lambda1(lam: float, n: int) -> list[str]:
    exact = discrete_lambda1_2d(n)
    rel = abs(lam - exact) / exact
    return [] if rel <= 1e-10 else [f"lambda1={lam:.15g} differs from {exact:.15g} by {rel:.2e} relative"]


def tol_order(h2: float, dt_max: float, sup_max: float) -> float:
    """Comparison tolerance 1e-6 + 10 (h^2 + dt_max) (1 + sup)."""
    return 1e-6 + 10.0 * (h2 + dt_max) * (1.0 + sup_max)


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Numeric columns of an mmrd trajectory CSV (comment lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if not line.startswith("#")]
    header, body = rows[0], rows[1:]
    cols = {}
    for j, name in enumerate(header):
        if name == "status":
            continue
        cols[name] = np.asarray([float(r[j]) if r[j] else math.nan for r in body])
    return cols


def check_pair_csvs(sub: dict, sup: dict, tol: float) -> list[str]:
    out = []
    if len(sub["t"]) != len(sup["t"]) or not np.array_equal(sub["t"], sup["t"]):
        return ["sub and super CSVs have different time columns"]
    for key in [k for k in sub if k.startswith("supnorm_")] + ["y"]:
        excess = float(np.max(sub[key] - sup[key]))
        if not excess <= tol:
            out.append(f"CSV column {key}: sub exceeds super by {excess:.3e} > tol {tol:.3e}")
    return out
