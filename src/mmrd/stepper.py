"""Implicit time integration with graph-valued boundary and interior laws.

Each backward-Euler step freezes the reaction at the previous state and
solves, per component,

    u - dt * a * Lap_h u + dt * beta(u)  ∋  u_old + dt * F(U_old),

with the boundary rows closed through the ghost-node flux inclusion
-a * d_nu u in gamma(u).  The solve is a colored nonlinear Gauss-Seidel
iteration whose nodal updates are scalar resolvent applications: graphs
enter only through ``graphs.resolve_terms``.  This keeps every node inside
the graph domains at every sweep, which is what makes constant states exact
equilibria, nonnegative data stay nonnegative, and ordered states stay
ordered.

Time steps adapt to the reaction strength: dt is capped by
safety / ell(sup norm) and safety / L_local, halved when the nonlinear
solve stalls, and a run terminates either at t_end or with a blow-up /
solver-failure classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantViolation, SolverFailure
from .graphs import MonotoneGraph, resolve_terms
from .mesh import Mesh, sup_norm
from .reactions import Reaction, ell, eval_reaction, lipschitz_bound

__all__ = [
    "ProblemSpec",
    "TimeControl",
    "Trajectory",
    "BlowupVerdict",
    "step",
    "run",
    "detect_blowup",
    "local_existence_horizon",
]

SWEEP_TOL = 1e-10
MAX_SWEEPS = 500


@dataclass(frozen=True)
class ProblemSpec:
    """One initial-boundary value problem on a mesh.

    ``interior`` and ``boundary`` hold one monotone graph per component
    (beta and gamma); ``initial`` is an array of shape (m,) + mesh.shape.
    Initial data are projected onto the closure of the graph domains at
    construction (everywhere for beta, on boundary nodes for gamma).
    """

    mesh: Mesh
    diffusion: tuple[float, ...]
    reaction: Reaction
    interior: tuple[MonotoneGraph, ...]
    boundary: tuple[MonotoneGraph, ...]
    initial: np.ndarray

    def __post_init__(self):
        m = self.reaction.m
        if not (len(self.diffusion) == len(self.interior) == len(self.boundary) == m):
            raise ConfigurationError(
                f"component mismatch: reaction has m={m}, got {len(self.diffusion)} diffusion "
                f"coefficients, {len(self.interior)} interior and {len(self.boundary)} boundary graphs"
            )
        if any(a <= 0 for a in self.diffusion):
            raise ConfigurationError(f"diffusion coefficients must be > 0, got {self.diffusion}")
        init = np.asarray(self.initial, dtype=float)
        if init.shape != (m,) + self.mesh.shape:
            raise ConfigurationError(
                f"initial data shape {init.shape} does not match (m,)+mesh shape "
                f"{(m,) + self.mesh.shape}"
            )
        if not np.all(np.isfinite(init)):
            raise ConfigurationError("initial data must be finite")
        init = init.copy()
        bmask = self.mesh.boundary_mask
        for k in range(m):
            beta, gamma = self.interior[k], self.boundary[k]
            init[k] = np.clip(init[k], beta.domain_lo, beta.domain_hi)
            init[k][bmask] = np.clip(init[k][bmask], gamma.domain_lo, gamma.domain_hi)
        object.__setattr__(self, "initial", init)

    @property
    def m(self) -> int:
        return self.reaction.m

    def initial_state(self) -> np.ndarray:
        return self.initial.copy()


@dataclass(frozen=True)
class TimeControl:
    t_end: float
    dt_init: float = 1e-3
    dt_min: float = 1e-10
    blowup_threshold: float = 1e8
    safety: float = 0.1

    def __post_init__(self):
        if self.t_end <= 0:
            raise ConfigurationError(f"t_end must be > 0, got {self.t_end}")
        if not 0 < self.dt_min <= self.dt_init:
            raise ConfigurationError(
                f"need 0 < dt_min <= dt_init, got dt_min={self.dt_min}, dt_init={self.dt_init}"
            )
        if self.blowup_threshold < 1e3:
            raise ConfigurationError(
                f"blowup_threshold must be >= 1e3, got {self.blowup_threshold}"
            )
        if self.safety <= 0:
            raise ConfigurationError(f"safety must be > 0, got {self.safety}")


@dataclass
class Trajectory:
    """Recorded time series of one run; one sample per accepted step
    (plus the initial sample at t = 0 with dt = 0)."""

    times: np.ndarray
    dts: np.ndarray
    sup_norms: np.ndarray  # (n_samples, m)
    min_values: np.ndarray  # (n_samples, m)
    status: str  # "completed" | "blowup" | "solver_failure"
    final_state: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    note: str = ""

    @property
    def overall_sup(self) -> np.ndarray:
        return self.sup_norms.max(axis=1)


# ---------------------------------------------------------------------------
# the implicit solve
# ---------------------------------------------------------------------------


def _solve_component_1d(
    u: np.ndarray,
    rhs: np.ndarray,
    mu: float,
    dt: float,
    h: float,
    beta: MonotoneGraph,
    gamma: MonotoneGraph,
) -> tuple[np.ndarray, float]:
    """Gauss-Seidel sweeps for one component in 1D; returns (state, last change)."""
    c_int = 1.0 + 2.0 * mu
    c_bnd = 1.0 + 2.0 * mu
    int_terms = [(dt / c_int, beta)]
    bnd_terms = [(dt / c_bnd, beta), (2.0 * dt / (h * c_bnd), gamma)]
    even = slice(1, -1, 2)  # interior nodes 1, 3, ...
    odd = slice(2, -1, 2)
    change = math.inf
    for _ in range(MAX_SWEEPS):
        change = 0.0
        for sl in (even, odd):
            left = u[sl.start - 1 : -2 : 2]
            right = u[sl.start + 1 :: 2]
            q = (rhs[sl] + mu * (left + right)) / c_int
            new = resolve_terms(q, int_terms)
            change = max(change, float(np.max(np.abs(new - u[sl]), initial=0.0)))
            u[sl] = new
        q0 = np.asarray([(rhs[0] + 2.0 * mu * u[1]) / c_bnd, (rhs[-1] + 2.0 * mu * u[-2]) / c_bnd])
        new = resolve_terms(q0, bnd_terms)
        change = max(change, float(np.max(np.abs(new - u[[0, -1]]))))
        u[0], u[-1] = new
        if change <= SWEEP_TOL:
            return u, change
    raise SolverFailure(f"Gauss-Seidel stalled: change {change:.3e} after {MAX_SWEEPS} sweeps", change)


def _solve_component_2d(
    u: np.ndarray,
    rhs: np.ndarray,
    mux: float,
    muy: float,
    dt: float,
    hx: float,
    hy: float,
    beta: MonotoneGraph,
    gamma: MonotoneGraph,
    parity: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, float]:
    c = 1.0 + 2.0 * (mux + muy)
    int_terms = [(dt / c, beta)]
    face_x = [(dt / c, beta), (2.0 * dt / (hx * c), gamma)]
    face_y = [(dt / c, beta), (2.0 * dt / (hy * c), gamma)]
    corner = [(dt / c, beta), (2.0 * dt * (1.0 / hx + 1.0 / hy) / c, gamma)]
    change = math.inf
    for _ in range(MAX_SWEEPS):
        change = 0.0
        # interior checkerboard
        for mask in parity:
            q = (
                rhs[1:-1, 1:-1]
                + mux * (u[:-2, 1:-1] + u[2:, 1:-1])
                + muy * (u[1:-1, :-2] + u[1:-1, 2:])
            ) / c
            new = resolve_terms(q, int_terms)
            diff = np.abs(new - u[1:-1, 1:-1])[mask]
            if diff.size:
                change = max(change, float(diff.max()))
            u[1:-1, 1:-1][mask] = new[mask]
        # faces (excluding corners)
        for sl, nb, terms in (
            ((0, slice(1, -1)), lambda: 2.0 * mux * u[1, 1:-1] + muy * (u[0, :-2] + u[0, 2:]), face_x),
            ((-1, slice(1, -1)), lambda: 2.0 * mux * u[-2, 1:-1] + muy * (u[-1, :-2] + u[-1, 2:]), face_x),
            ((slice(1, -1), 0), lambda: 2.0 * muy * u[1:-1, 1] + mux * (u[:-2, 0] + u[2:, 0]), face_y),
            ((slice(1, -1), -1), lambda: 2.0 * muy * u[1:-1, -2] + mux * (u[:-2, -1] + u[2:, -1]), face_y),
        ):
            q = (rhs[sl] + nb()) / c
            new = resolve_terms(q, terms)
            change = max(change, float(np.max(np.abs(new - u[sl]), initial=0.0)))
            u[sl] = new
        # corners
        qc = np.asarray(
            [
                rhs[0, 0] + 2.0 * (mux * u[1, 0] + muy * u[0, 1]),
                rhs[-1, 0] + 2.0 * (mux * u[-2, 0] + muy * u[-1, 1]),
                rhs[0, -1] + 2.0 * (mux * u[1, -1] + muy * u[0, -2]),
                rhs[-1, -1] + 2.0 * (mux * u[-2, -1] + muy * u[-1, -2]),
            ]
        ) / c
        new = resolve_terms(qc, corner)
        old = np.asarray([u[0, 0], u[-1, 0], u[0, -1], u[-1, -1]])
        change = max(change, float(np.max(np.abs(new - old))))
        u[0, 0], u[-1, 0], u[0, -1], u[-1, -1] = new
        if change <= SWEEP_TOL:
            return u, change
    raise SolverFailure(f"Gauss-Seidel stalled: change {change:.3e} after {MAX_SWEEPS} sweeps", change)


def _parity_masks(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.meshgrid(
        np.arange(1, shape[0] - 1), np.arange(1, shape[1] - 1), indexing="ij"
    )
    even = (ii + jj) % 2 == 0
    return even, ~even


def step(P: ProblemSpec, S: np.ndarray, dt: float) -> np.ndarray:
    """One backward-Euler step; raises SolverFailure when the sweeps stall."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    S = np.asarray(S, dtype=float)
    F = eval_reaction(P.reaction, S)
    new = np.empty_like(S)
    mesh = P.mesh
    parity = _parity_masks(mesh.shape) if mesh.dim == 2 else None
    for k in range(P.m):
        rhs = S[k] + dt * F[k]
        u = S[k].copy()
        if mesh.dim == 1:
            (h,) = mesh.spacing
            mu = P.diffusion[k] * dt / h**2
            new[k], _ = _solve_component_1d(u, rhs, mu, dt, h, P.interior[k], P.boundary[k])
        else:
            hx, hy = mesh.spacing
            a = P.diffusion[k]
            new[k], _ = _solve_component_2d(
                u, rhs, a * dt / hx**2, a * dt / hy**2, dt, hx, hy,
                P.interior[k], P.boundary[k], parity,
            )
    return new


# ---------------------------------------------------------------------------
# adaptive runs
# ---------------------------------------------------------------------------


def propose_dt(P: ProblemSpec, S: np.ndarray, tc: TimeControl, dt_prev: float) -> float:
    """Next trial step: capped by dt_init, gentle growth, the reaction growth
    envelope and the local Lipschitz bound of the reaction.  A bound that
    overflows to inf gives dt = 0, which the drivers report as a collapse."""
    sup_total = float(sum(sup_norm(S[k]) for k in range(P.m)))
    box = float(max(sup_norm(S[k]) for k in range(P.m)))
    dt = min(tc.dt_init, 2.0 * dt_prev)
    envelope = ell(P.reaction, sup_total)
    if envelope > 0:
        dt = min(dt, tc.safety / envelope)
    lip = lipschitz_bound(P.reaction, box)
    if lip > 0:
        dt = min(dt, tc.safety / lip)
    return dt


class _AdaptiveRun:
    """Bookkeeping for one problem advanced by an adaptive driver."""

    def __init__(self, P: ProblemSpec, tc: TimeControl, observer=None):
        self.problem = P
        self.tc = tc
        self.observer = observer
        self.state = P.initial_state()
        self.t = 0.0
        self.times: list[float] = []
        self.dts: list[float] = []
        self.sups: list[list[float]] = []
        self.mins: list[list[float]] = []
        self.extras: dict[str, list[float]] = {}
        self.snapshots: list[tuple[float, np.ndarray]] = []
        self.status = "completed"
        self.note = ""
        self.record(0.0)

    def record(self, dt: float) -> None:
        self.times.append(self.t)
        self.dts.append(dt)
        self.sups.append([sup_norm(self.state[k]) for k in range(self.problem.m)])
        self.mins.append([float(self.state[k].min()) for k in range(self.problem.m)])
        if self.observer is not None:
            for key, val in self.observer(self.t, self.state).items():
                self.extras.setdefault(key, []).append(float(val))

    def overall_sup(self, sample: int = -1) -> float:
        return max(self.sups[sample])

    def increasing(self) -> bool:
        return len(self.sups) >= 2 and self.overall_sup(-1) > self.overall_sup(-2)

    def classify_collapse(self) -> None:
        if self.increasing():
            self.status = "blowup"
            self.note = "dt collapsed below dt_min while the sup norm was increasing"
        else:
            self.status = "solver_failure"
            self.note = "dt collapsed below dt_min without sup-norm growth"

    def finish(self) -> Trajectory:
        return Trajectory(
            times=np.asarray(self.times),
            dts=np.asarray(self.dts),
            sup_norms=np.asarray(self.sups),
            min_values=np.asarray(self.mins),
            status=self.status,
            final_state=self.state,
            extras={k: np.asarray(v) for k, v in self.extras.items()},
            snapshots=self.snapshots,
            note=self.note,
        )


def run(
    P: ProblemSpec,
    tc: TimeControl,
    observer=None,
    snapshot_times: tuple[float, ...] = (),
) -> Trajectory:
    """Advance the problem adaptively until t_end, blow-up or solver failure.

    ``observer(t, state) -> dict[str, float]`` is evaluated at every accepted
    step and collected into ``Trajectory.extras``.  Never raises across this
    boundary: failures are reported through ``Trajectory.status``.
    """
    r = _AdaptiveRun(P, tc, observer)
    pending_snaps = sorted(snapshot_times)
    dt_prev = tc.dt_init
    while tc.t_end - r.t > tc.dt_min:
        dt = min(propose_dt(P, r.state, tc, dt_prev), tc.t_end - r.t)
        while True:
            if dt < tc.dt_min:
                r.classify_collapse()
                return r.finish()
            try:
                new = step(P, r.state, dt)
                break
            except SolverFailure:
                dt *= 0.5
            except InvariantViolation as exc:
                # a smaller dt cannot make a non-maximal graph sum solvable
                r.status = "solver_failure"
                r.note = str(exc)
                return r.finish()
        if not np.all(np.isfinite(new)):
            r.state = np.nan_to_num(new, nan=tc.blowup_threshold, posinf=tc.blowup_threshold,
                                    neginf=-tc.blowup_threshold)
            r.t += dt
            r.record(dt)
            r.status = "blowup" if r.increasing() else "solver_failure"
            r.note = "non-finite state encountered"
            return r.finish()
        r.state = new
        r.t += dt
        dt_prev = dt
        r.record(dt)
        while pending_snaps and r.t >= pending_snaps[0]:
            r.snapshots.append((r.t, r.state.copy()))
            pending_snaps.pop(0)
        if r.overall_sup() >= tc.blowup_threshold:
            r.status = "blowup"
            r.note = f"sup norm reached the blow-up threshold {tc.blowup_threshold:g}"
            return r.finish()
    return r.finish()


# ---------------------------------------------------------------------------
# blow-up detection and the existence horizon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupVerdict:
    kind: str  # "none" | "blowup"
    t_blowup: float | None = None
    ci_width: float | None = None
    note: str = ""


def _reciprocal_fit(times: np.ndarray, sups: np.ndarray) -> float | None:
    """Zero crossing of a linear fit to 1/sup(t); None when not decreasing."""
    inv = 1.0 / np.maximum(sups, 1e-300)
    if len(times) < 2:
        return None
    slope, intercept = np.polyfit(times, inv, 1)
    if slope >= 0:
        return None
    return float(-intercept / slope)


def detect_blowup(traj: Trajectory, window: int = 10) -> BlowupVerdict:
    """Estimate the blow-up time by extrapolating 1/sup to zero.

    Uses the last ``window`` samples; the confidence width is the spread
    between the last-5 and last-10 fits.  Runs that ended for other reasons
    (completed, dt collapse without growth) yield kind "none".
    """
    if traj.status != "blowup":
        note = traj.note if traj.status == "solver_failure" else ""
        return BlowupVerdict("none", note=note)
    sups = traj.overall_sup
    times = traj.times
    n = len(times)
    t10 = _reciprocal_fit(times[-min(window, n):], sups[-min(window, n):])
    t5 = _reciprocal_fit(times[-min(window // 2, n):], sups[-min(window // 2, n):])
    if t10 is None and t5 is None:
        return BlowupVerdict("blowup", float(times[-1]), math.inf, "extrapolation degenerate")
    if t10 is None or t5 is None:
        t = t10 if t10 is not None else t5
        return BlowupVerdict("blowup", t, math.inf, "single usable fit")
    return BlowupVerdict("blowup", t10, abs(t10 - t5))


def local_existence_horizon(u0_sup: float, F: Reaction) -> float:
    """Guaranteed existence horizon 1 / (2 ell(u0_sup + 1)): the sup norm
    stays below u0_sup + 1 up to it."""
    if u0_sup < 0:
        raise ConfigurationError(f"u0_sup must be >= 0, got {u0_sup}")
    return 1.0 / (2.0 * ell(F, u0_sup + 1.0))
