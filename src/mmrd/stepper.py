"""Implicit time integration with graph-valued boundary and interior laws.

Each backward-Euler step freezes the reaction at the previous state and
solves, per component,

    u - dt * a * Lap_h u + dt * beta(u)  ∋  u_old + dt * F(U_old),

with the boundary rows closed through the ghost-node flux inclusion
-a * d_nu u in gamma(u).  Divided by its diagonal c, each row is the nodal
fixed point u = R((rhs + N u) / c), with N the neighbour sum and R the
scalar resolvent of the node's graphs (``graphs.resolve_terms`` of a
``graphs.ResolventPlan``).  The frozen reaction decouples the components,
so one semismooth Newton solve serves all m of them, 1D and 2D: its
Jacobian is block diagonal, one block per component, and each component
stops on its own residual test.  It
returns R itself, so every node lies inside the graph domains exactly,
which is what makes constant states exact equilibria, nonnegative data stay
nonnegative, and ordered states stay ordered.

Each run keeps one workspace per problem (``_Workspace``), built once: the
stencil and the resolvent plans of the node classes, grouped across
components where they agree.  Per dt it only rescales them, and dt is
unchanged on most steps.  It also keeps the differences between the last
accepted states, at most ``PREDICTOR_CAP`` = 5, and each Newton solve
starts from the polynomial through the current state and the states
behind it, evaluated at the new time, not from the old state (Hairer &
Wanner, Solving ODEs II, 2nd ed., IV.8, on starting values; the
variable-order predictor of DASSL, Brenan, Campbell & Petzold 1996).  In
Newton's divided-difference form its series is cut before the first term
that is zero or not smaller in max norm than the term before it, so a
kink or a change of regime lowers the order (``_extrapolate``).  On a
smooth stretch the first residual is then O(dt^(k+1)) at order k, not
O(dt), and fewer chord solves finish the step: on the ``plate_2d``
benchmark (seed 1) a round takes 107 band solves with the cap 5, against
194 from a quadratic start and 162, 136 and 109 with caps 3, 4 and 6, so
the count saturates at 5.  The start changes the path of the solve, never
the stopping test its result passes.  Diffusion is
linear, so the Newton matrix I - diag(R') N / c changes only where the
resolvent slope R' moves (the boundary rows, for a zero interior graph),
and little between steps of equal dt.  The workspace therefore also keeps
the matrix's factors across iterations and steps and uses them for chord
steps (Kelley 2003, the chord and Shamanskii methods).  It refactors when
dt changes, when a chord step lowers the residual by less than the factor
``CHORD_RATE`` = 1/100, or when it does not lower it at all, unless the
step started from an iterate that already passed the stopping test (the
Newton step a predicted start is due), which left nothing to contract.  That factor
is the one Hairer & Wanner (IV.8) advise for RADAU5's Jacobian reuse when
Jacobians are costly: a 2D factorization costs about 12 to 20 banded
solves (on the 41 x 41 mesh of the ``plate_2d`` benchmark, with one BLAS
thread, dpbtrf takes 0.52-0.59 ms and dpbtrs 43-46 us, and with the band's
assembly and the solve's scalings about 16x), so a kept factor that
contracts 100x per step beats a fresh one, and in 1D, where the two cost
about the same, the looser rule moves the counts little.  The matrix has
unit diagonal and off-diagonal row sums R' (c - 1) / c < 1, so it is
strictly row diagonally dominant and its elimination needs no pivoting
(Higham 2002, ch. 9).  The ghost-node stencil weighs nothing across the
last node row of each axis, so stacking the components keeps the
bandwidth of one block, and the bandwidth picks the back end.  At
bandwidth 1 (every 1D mesh) it is a tridiagonal elimination in plain
Python.  Above it, the matrix is the
discrete comparison operator, and N is self-adjoint in the trapezoid
inner product: N = W^-1 K with W the node weights and K symmetric.  So
scaling rows by W diag(R')^-1/2 and columns by diag(R')^1/2 gives a
symmetric positive definite matrix with diagonal W (``_band_factor``).
LAPACK's banded Cholesky dpbtrf factors it as L L^T in the lower half of a
band of bw + 1 rows, without pivots (Golub & Van Loan, Matrix
Computations, 4th ed., 4.3), and the factor is then rewritten in place as
the upper band of U = L^T, from which dpbtrs solves U^T U z = r in half
the time it takes from the lower band.  dpbtrf and dpbtrs come from
scipy's LAPACK extension module, which is loaded from its file when such
a matrix is first factored, without the ``scipy.linalg`` package
(``_lapack``): so 1D runs never load scipy, and 2D runs load the top-level
package and the extension, not the 28.7 MB of ``scipy.linalg``.

Time steps adapt to the reaction strength: dt is capped by
safety * max(1, r) / ell(r), with r the summed sup norm, so that above
r = 1 the sup norm changes by at most about the fraction ``safety`` per
step (Nakagawa's tau * min(1, 1/|U|) for F = u^2), and by safety / L on
the max-norm box, which keeps the frozen reaction order-preserving.
dt is halved when the nonlinear solve stalls, and a run terminates
either at t_end or with a blow-up / solver-failure classification.

One adaptive driver, ``_advance``, does this for any number of problems
on a shared time grid: ``run`` applies it to one problem, and
``compare.run_pair`` to a (sub, super) pair with an observer of the
ordering defect.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, SolverFailure
from .graphs import MonotoneGraph, ResolventPlan, resolve_terms, resolvent_slope
from .mesh import Mesh
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

SOLVE_TOL = 1e-10
CHORD_RATE = 1e-2  # a step with kept factors must lower max|Phi| by this factor
PREDICTOR_CAP = 5  # accepted states behind S that a Newton start extrapolates from, at most
MAX_ITER = 500
BLOWUP_WINDOW = 10  # samples in the longer of detect_blowup's two fits


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
    """Run length and step control.  ``safety`` bounds the relative change
    of the summed sup norm per step (its absolute change below norm 1) and
    the product dt * L of the step with the reaction's Lipschitz bound."""

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
    (plus the initial sample at t = 0 with dt = 0).

    ``blowup_exponent`` is the k for which sup^-k falls linearly in time
    as the run nears a blow-up (``detect_blowup``): p - 2 for a power
    reaction, whose u' = u^(p-1) gives u^-(p-2) = (p - 2)(T - t), and 1
    otherwise.  The drivers set it from the problem's reaction."""

    times: np.ndarray
    dts: np.ndarray
    sup_norms: np.ndarray  # (n_samples, m)
    min_values: np.ndarray  # (n_samples, m)
    status: str  # "completed" | "blowup" | "solver_failure"
    final_state: np.ndarray
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    note: str = ""
    blowup_exponent: float = 1.0

    @property
    def overall_sup(self) -> np.ndarray:
        return self.sup_norms.max(axis=1)


# ---------------------------------------------------------------------------
# the implicit solve
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _stencil(mesh: Mesh):
    """Ghost-node stencil on flattened (C-order) node indices.

    ``axes``: (stride, up, down) per axis, where up[p] / down[p] weigh
    u[p + stride] / u[p - stride] in row p (2 on boundary rows, where the
    ghost node mirrors the inner one; 0 across the edge).  ``classes``:
    (flux, idx), flux = 2 * sum of 1/h over the boundaries that nodes idx lie on.
    """
    shape = mesh.shape
    flux = np.zeros(shape)
    axes = []
    for ax, h in enumerate(mesh.spacing):
        up, down = np.ones(shape), np.ones(shape)
        u_ax, d_ax, f_ax = (np.moveaxis(arr, ax, 0) for arr in (up, down, flux))
        u_ax[0], u_ax[-1] = 2.0, 0.0
        d_ax[0], d_ax[-1] = 0.0, 2.0
        f_ax[0] += 2.0 / h
        f_ax[-1] += 2.0 / h
        axes.append((int(np.prod(shape[ax + 1 :])), up.ravel(), down.ravel()))
    flux = flux.ravel()
    classes = tuple((float(w), np.flatnonzero(flux == w)) for w in np.unique(flux))
    return tuple(axes), classes


def _flapack_path() -> str:
    """The file of scipy's f2py LAPACK extension, scipy/linalg/_flapack
    with one of the interpreter's extension suffixes, found without
    importing ``scipy.linalg``; ImportError when there is none."""
    for root in importlib.util.find_spec("scipy").submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    raise ImportError("scipy/linalg/_flapack not found")


@lru_cache(maxsize=1)
def _lapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, loaded
    from its file on the first call, without the ``scipy.linalg`` package.

    ``scipy.linalg.lapack`` re-exports that module's routines, so these are
    the very functions it hands out, but importing it runs the init of the
    whole ``scipy.linalg`` package for the two routines a 2D solve needs:
    in a bare process that added 28.7 MB of peak resident memory and took
    226 ms, against 4.3 MB and 25 ms for the extension with the top-level
    ``scipy`` package, which is imported first (on Windows its
    ``_distributor_init`` is what makes the bundled BLAS findable).  On the
    ``plate_2d`` benchmark the peak fell from 64-65 MB to 41.5-42.6 MB.

    CPython registers a single-phase extension in ``sys.modules`` as it
    loads it; the entry is taken out again, so that a later
    ``import scipy.linalg`` runs scipy's own package init and binds
    ``scipy.linalg._flapack`` as usual.  CPython keeps the extension's
    first namespace and hands a copy of it to that import, so its routines
    are the same objects as these.  When the package is already loaded, or
    the file cannot be found or loaded, ``scipy.linalg.lapack`` serves.
    """
    import scipy  # noqa: F401

    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        try:
            spec = importlib.util.spec_from_file_location(name, _flapack_path())
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
        finally:
            sys.modules.pop(name, None)
    from scipy.linalg import lapack

    return lapack


def dpbtrf(*args, **kwargs):
    """LAPACK dpbtrf from ``_lapack()``, loaded at the first call."""
    return _lapack().dpbtrf(*args, **kwargs)


def dpbtrs(*args, **kwargs):
    """LAPACK dpbtrs from ``_lapack()``, loaded at the first call."""
    return _lapack().dpbtrs(*args, **kwargs)


def _add_neighbours(q: np.ndarray, v: np.ndarray, coupling) -> None:
    """Add N v to q in place, both (m, n), with N the neighbour weights
    ``coupling`` ((stride, up, down) per axis)."""
    for s, up, down in coupling:
        q[:, :-s] += up[:, :-s] * v[:, s:]
        q[:, s:] += down[:, s:] * v[:, :-s]


def _tridiag_factor(sub: np.ndarray, sup: np.ndarray):
    """Factor the tridiagonal matrix with unit diagonal, sub-diagonal
    ``sub`` and super-diagonal ``sup`` by elimination without pivoting.
    Returns the multipliers, the super-diagonal and the pivots, as lists,
    or None when a pivot is not finite and positive."""
    upper = sup.tolist()
    lower = [0.0]
    piv = [1.0]
    p = 1.0
    for a, e in zip(sub.tolist(), upper):
        m = a / p
        p = 1.0 - m * e
        if not 0.0 < p < math.inf:
            return None
        lower.append(m)
        piv.append(p)
    upper.append(0.0)
    return lower, upper, piv


def _tridiag_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve with the factors of ``_tridiag_factor``: forward, then back
    substitution."""
    lower, upper, piv = factors
    y = b.tolist()
    prev = 0.0
    for i, m in enumerate(lower):
        prev = y[i] = y[i] - m * prev
    nxt = 0.0
    for i in range(len(y) - 1, -1, -1):
        nxt = y[i] = (y[i] - upper[i] * nxt) / piv[i]
    return np.array(y)


def _band_factor(ab: np.ndarray, weight: np.ndarray, slope: np.ndarray, coupling, c: np.ndarray):
    """Factor the Newton matrix A = I - diag(slope) N / c of the stacked
    components, slope and the (stride, up, down) weights of N on (m, n)
    arrays, c (m, 1), by banded Cholesky of an equivalent symmetric system.

    With W the trapezoid node weights ``weight`` (relative to the
    interior's), K = W N is symmetric.  Write D = diag(slope) and C for the
    clipped nodes (D = 0), where A's row is e_p.  On the other nodes put
    E = D^1/2 and x = E z; then A x = b becomes M z = W E^-1 b~ with
    M = W - E K E / c and b~ = b + D N b_C / c, b_C being b on C and 0
    elsewhere.  M is symmetric with diagonal W, and strictly diagonally
    dominant, since E <= 1 and W - K/c is (K's rows sum to W (c - 1)); so
    it is positive definite, and its pivots keep the size of W however
    small the slopes.  (With x = D z and M = W D - D K D / c, a slope of
    1e-308 gave a NaN solution, and a subnormal one left no factors.)  The
    clipped nodes get the rows and columns of the identity, z = x = b there.

    M's lower half is assembled in the buffer ``ab`` of bw + 1 rows and
    factored there by dpbtrf into L L^T.  (Not the upper half: with
    OpenBLAS 0.3.31 on two cores, dpbtrf took 4x as long on it when BLAS
    could use both threads, and no longer on the lower half.)  L is then
    rewritten in place as the upper band storage of U = L^T, which
    ``_band_solve`` hands to dpbtrs: on the band of the 41 x 41
    ``plate_2d`` mesh (1681 unknowns, bw = 41), dpbtrs took 43-46 us per
    call from the upper band against 92-97 us from the lower one with one
    BLAS thread, and 45-92 us against 100-140 us with the default two,
    while dpbtrf took 0.52-0.59 ms and the rewrite 0.17-0.23 ms.  Lower
    band row s holds L's entry (q + s, q) at column q, and upper band row
    bw - s holds U's entry (q - s, q), which is L's (q, q - s), at column
    q: so row s moves to row bw - s, shifted right by s, one swap of rows s
    and bw - s at a time through one row of temporary storage.

    Returns the factors for ``_band_solve``, or None when a pivot (a
    diagonal entry of the Cholesky factor) is not finite and positive:
    dpbtrf's info != 0, or a NaN or inf that it passed on, as a NaN slope
    gives.
    """
    clipped = slope == 0.0
    scale = np.sqrt(slope)  # x = scale * z, once the clipped nodes get 1
    # lower band storage: entry (p + s, p) = (p, p + s) in row s, column p
    ab[0] = np.where(clipped, 1.0, weight).reshape(-1)
    ab[1:] = 0.0
    flat = scale.reshape(-1)
    for s, up, _ in coupling:
        ab[s, :-s] = (scale * weight * up / -c).reshape(-1)[:-s] * flat[s:]
    scale[clipped] = 1.0
    rows = weight / scale  # M z = rows * b~
    rows[clipped] = 1.0
    chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0 or not np.isfinite(chol[0]).all():
        return None
    # rewrite L in place as the upper band storage of U = L^T
    bw, size = chol.shape[0] - 1, chol.shape[1]
    for s in range(bw // 2 + 1):
        t = bw - s
        row = chol[s].copy()
        chol[s, t:] = chol[t, :size - t]
        chol[t, s:] = row[:size - s]
    correction = (clipped, slope / c, coupling) if clipped.any() else None
    return chol, scale.reshape(-1), rows.reshape(-1), correction


def _band_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve A x = b with the factors of ``_band_factor``: form b~ (only
    when some node is clipped), solve M z = W E^-1 b~ from the upper band of
    U = L^T (U^T U = L L^T = M), and return x = E z (z = b on the clipped
    nodes)."""
    chol, scale, rows, correction = factors
    if correction is not None:
        clipped, gain, coupling = correction
        q = np.zeros(gain.shape)
        _add_neighbours(q, np.where(clipped, b.reshape(gain.shape), 0.0), coupling)
        b = b + (gain * q).reshape(-1)
    return scale * dpbtrs(chol, rows * b, lower=0, overwrite_b=1)[0]


class _Workspace:
    """What the Newton solves of one problem reuse across iterations and
    time steps.

    The m components are stacked into one vector of m * n nodes, component
    by component.  Set up once: the stencil, and the node classes of all
    components grouped by the ``ResolventPlan`` of their (interior,
    boundary) pair, with unit weights 1 and the class's boundary flux, and
    by diffusion coefficient, so that each group is resolved in one
    ``resolve_terms`` call; classes whose plan is the identity need no call
    and are left out.  Set up per dt by ``rescale``: ``coupling``, the
    (stride, up, down) neighbour weights of each axis on (m, n) arrays,
    ``c``, the components' diagonals as an (m, 1) array, and ``groups``,
    the (node indices, resolvent at scale dt / c) of each group.

    ``lu`` holds the factors of the stacked Newton matrix, made for the
    diagonals ``key``; a ``key`` of None means they must be remade before
    the next solve.  When the bandwidth is above 1 (a 2D mesh), ``ab`` is
    the band buffer of ``_band_factor``, bw + 1 rows that hold the lower
    half of the symmetric system, then its Cholesky factor L, and once the
    factorization is done the upper band of L^T, from which the solves read;
    ``weight`` is the trapezoid weights of one component's nodes relative
    to the interior's (1/2 per axis on a boundary row).  Both are None in
    1D.

    ``out`` is the array the last ``step`` with this workspace returned.
    The accepted states behind it, from which ``_extrapolate`` predicts the
    next, are kept as the differences d_l = S_(l-1) - S_l (S_0 = ``out``),
    newest first, with ``steps`` the step between each pair: at most
    ``PREDICTOR_CAP``, a chain of steps that each took the ``out`` of the
    one before (``remember``).  ``diffs`` holds them in a ring of
    PREDICTOR_CAP rows that is stored twice over, rows r and
    r + PREDICTOR_CAP alike, so that rows ``head`` to
    head + len(steps) - 1 are d_1, d_2, ... in order without moving any row.
    ``scratch`` is a flat buffer for the absolute values behind the
    residual norms.
    """

    __slots__ = ("problem", "m", "n", "axes", "plans", "bw", "ab", "weight", "lu", "key",
                 "dt", "c", "cs", "coupling", "groups", "out", "diffs", "head", "steps",
                 "scratch")

    def __init__(self, P: ProblemSpec):
        self.problem = P
        self.m, self.n = P.m, math.prod(P.mesh.shape)
        self.axes, node_classes = _stencil(P.mesh)
        plans: dict = {}
        for k in range(P.m):
            for w, idx in node_classes:
                plan = ResolventPlan([(1.0, P.interior[k]), (w, P.boundary[k])])
                if plan.terms:
                    # one diffusion coefficient gives one c, so one scale
                    group = (P.diffusion[k], plan.key)
                    plans.setdefault(group, (k, plan, []))[2].append(k * self.n + idx)
        self.plans = [(k, plan, np.sort(np.concatenate(idx))) for k, plan, idx in plans.values()]
        self.bw = max(stride for stride, _, _ in self.axes)
        self.ab = self.weight = None
        if self.bw > 1:
            self.ab = np.empty((self.bw + 1, self.m * self.n), order="F")
            self.weight = P.mesh.quad_weights.ravel() / math.prod(P.mesh.spacing)
        self.lu = self.key = self.dt = self.out = None
        self.diffs = np.zeros((2 * PREDICTOR_CAP, self.m * self.n))
        self.head, self.steps = 0, ()
        self.scratch = np.empty(self.m * self.n)

    def rescale(self, dt: float) -> None:
        """Make the per-dt setup for the step size dt."""
        P = self.problem
        mus = [[a * dt / h**2 for h in P.mesh.spacing] for a in P.diffusion]
        self.cs = tuple(1.0 + 2.0 * sum(mu) for mu in mus)
        self.c = np.array(self.cs)[:, None]
        self.coupling = []
        for ax, (stride, up, down) in enumerate(self.axes):
            mu = np.array([row[ax] for row in mus])[:, None]
            self.coupling.append((stride, mu * up, mu * down))
        self.groups = [(idx, plan.at(dt / self.cs[k])) for k, plan, idx in self.plans]
        self.dt = dt

    def remember(self, S: np.ndarray, U: np.ndarray, dt: float) -> None:
        """Keep U = step(S, dt) as the state the next step may extrapolate
        from: U - S joins the kept differences, or replaces them when S is
        not the state this workspace last returned."""
        if S is not self.out:
            self.steps = ()
        self.head = head = (self.head - 1) % PREDICTOR_CAP
        d = self.diffs[head]
        np.subtract(U.reshape(-1), S.reshape(-1), out=d)
        self.diffs[head + PREDICTOR_CAP] = d
        self.out, self.steps = U, (dt,) + self.steps[:PREDICTOR_CAP - 1]


def _worst(norms: list[float]) -> float:
    """The largest of the norms (>= 0), or NaN when one is NaN, as numpy's
    max gives it: their sum is NaN only then."""
    total = sum(norms)
    return max(norms) if total == total else total


def _solve(ws: _Workspace, u: np.ndarray, rhs: np.ndarray, predicted: bool) -> np.ndarray:
    """Semismooth Newton on Phi(u) = u - R((rhs + N u) / c) for all
    components at once, on the stacked vector of ``ws``, from the start u;
    ``rhs`` is (m, n).

    The reaction is frozen within a step, so the components decouple: the
    generalised Jacobian I - diag(R') N / c is block diagonal, one strictly
    row diagonally dominant M-matrix per component.  The ghost-node stencil
    weighs nothing across the last node row of each axis, so the stacked
    matrix has the bandwidth of one block: 1 on a 1D mesh, where
    ``_tridiag_factor``/``_tridiag_solve`` serve it, and the node count of
    the last axis on a 2D mesh, where ``_band_factor``/``_band_solve``
    serve it by the banded Cholesky of its symmetric positive definite form
    diag(W / sqrt(R')) A diag(sqrt(R')), clipped nodes (R' = 0) taken out.

    Component k has converged when max|Phi_k| <= SOLVE_TOL * max(1, max|x_k|);
    the solve stops when every component has, or at a NaN residual
    (``_advance`` classifies the non-finite state).  The test runs on Python
    floats, from one in-place abs and one maximum.reduce per norm.  A
    ``predicted`` start (an extrapolation other than S, see ``step``) is not
    returned as it is, even when it passes that test: it takes at least one
    Newton step, so that it saves work and never accuracy.  (The test is
    absolute below |x| = 1, and a start that lands just inside it would
    otherwise carry its error of up to SOLVE_TOL into every step of a
    decaying run.)  A component that has converged may take further steps
    while another finishes.  The factors in ``ws`` are reused while they
    serve (a chord step), judged by the largest block residual: they are
    remade when there are none, when some c changed (a new dt), after a
    chord step that lowered max|Phi| by less than the factor ``CHORD_RATE``
    (100x), and at once when a chord step did not lower max|Phi|; but not
    for a step from an iterate that already passed the test, whose residual
    may be rounding that no step lowers 100x.  (Judged by that step, the
    1000 steps of the NR preset, whose starts are within rounding of the
    solution once its initial layer has passed, refactored on every other
    step.)  A pivot that is not finite and positive (in 2D, dpbtrf's
    info != 0 or a non-finite pivot) leaves no factors, and so does a step
    with fresh factors that does not lower max|Phi|: either is replaced by
    the fixed-point step u <- R(q), a max-norm contraction.
    Returns R itself, so every node lies in its graph domains exactly.
    """
    m, n = ws.m, ws.n
    ab, c, cs = ws.ab, ws.c, ws.cs
    coupling, groups = ws.coupling, ws.groups

    scratch = ws.scratch
    blocks = scratch.reshape(m, n)

    def resolve(v):
        q = rhs.copy()
        _add_neighbours(q, v.reshape(m, n), coupling)
        q /= c
        x = q.reshape(-1)
        for idx, R in groups:
            x[idx] = resolve_terms(x[idx], R)
        np.subtract(v, x, out=scratch)
        np.abs(scratch, out=scratch)
        return x, np.maximum.reduce(blocks, axis=1).tolist()

    def converged(x, res_k):
        np.abs(x, out=scratch)
        tops = np.maximum.reduce(blocks, axis=1).tolist()
        return not any(r > SOLVE_TOL * max(top, 1.0) for r, top in zip(res_k, tops))

    def factor(x):
        slope = np.ones(m * n)
        for idx, R in groups:
            slope[idx] = resolvent_slope(x[idx], R)
        slope = slope.reshape(m, n)
        if ab is None:
            # row p, flattened: up[p] weighs node p + 1, down[p] node p - 1
            ((_, up, down),) = coupling
            sup, sub = (slope * up / -c).reshape(-1), (slope * down / -c).reshape(-1)
            ws.lu = _tridiag_factor(sub[1:], sup[:-1])
        else:
            ws.lu = _band_factor(ab, ws.weight, slope, coupling, c)
        ws.key = cs if ws.lu is not None else None

    def solve(b):
        return _tridiag_solve(ws.lu, b) if ab is None else _band_solve(ws.lu, b)

    x, res_k = resolve(u)
    res = _worst(res_k)
    for it in range(MAX_ITER):
        if res != res or ((it or not predicted) and converged(x, res_k)):
            return x
        fresh = ws.key != cs
        if fresh:
            factor(x)
        if ws.key is not None:
            v = u + solve(x - u)
            x_v, res_v_k = resolve(v)
            res_v = _worst(res_v_k)
            if res_v < res:
                if not fresh and res_v > CHORD_RATE * res and not converged(x, res_k):
                    ws.key = None  # slow: refactor at the next iterate
                u, x, res_k, res = v, x_v, res_v_k, res_v
                continue
            if not fresh:
                if not converged(x, res_k):
                    ws.key = None  # refactor at this iterate
                continue
        u = x
        x, res_k = resolve(u)
        res = _worst(res_k)
    raise SolverFailure(
        f"semismooth Newton stalled: residual {res:.3e} after {MAX_ITER} iterations", res
    )


@lru_cache(maxsize=8)
def _newton_weights(dt: float, steps: tuple[float, ...]) -> np.ndarray:
    """The terms of ``_extrapolate``'s Newton series, and their partial sums,
    as combinations of the j = len(steps) kept differences
    d_l = S_(l-1) - S_l, newest first (S_0 = S, steps[l - 1] the step from
    S_l to S_(l-1)): row i - 1 of the 2j x j result weighs them into the
    i-th term, and row j + i - 1 into the sum of the first i terms.

    On the nodes t_0 = 0 > t_1 > ... > t_j (t_l = t_(l-1) - steps[l - 1])
    the i-th divided difference is sum_l w_il S_l, w_il the inverse of
    prod (t_l - t_m) over m <= i, m != l, so that w_il = w_(i-1)l / (t_l - t_i)
    for l < i.  These weights sum to 0, which gives w_ii, and with
    S_l = S_0 - d_1 - ... - d_l the divided difference is sum_p c_ip d_p,
    c_ip = w_i0 + ... + w_i(p-1).  The i-th term is it times
    (dt - t_0) ... (dt - t_(i-1)).  The cache hands the same read-only array
    to every caller.
    """
    j = len(steps)
    terms: list[float] = []
    sums: list[float] = []
    partial = [0.0] * j
    w, nodes = [1.0], [0.0]
    t, span = 0.0, 1.0
    for i, k in enumerate(steps, 1):
        span *= dt - t
        t -= k
        w = [wl / (tl - t) for wl, tl in zip(w, nodes)]
        nodes.append(t)
        total = 0.0
        for p, wl in enumerate(w):
            total += wl
            term = span * total
            terms.append(term)
            partial[p] += term
        terms += [0.0] * (j - i)
        sums += partial
        w.append(-total)
    weights = np.array(terms + sums).reshape(2 * j, j)
    weights.flags.writeable = False
    return weights


def _extrapolate(S: np.ndarray, dt: float, ws: _Workspace) -> np.ndarray:
    """The Newton start of the step from S by dt: the polynomial through S
    and the accepted states behind it that ``ws`` keeps, evaluated dt after
    S, when S is the state ``ws`` last returned; else S itself.

    The polynomial is taken in Newton's form on the non-uniform grid: S plus
    terms of rising order, formed with their partial sums in one product
    (``_newton_weights``).  The series is cut before its first term that is
    zero, or that is not smaller in max norm than the term before it: there
    the differences no longer behave like derivatives (a kink, a change of
    regime, rounding noise), and higher orders would amplify them.  When no
    term is kept, S itself is returned, the very array.
    """
    steps = ws.steps
    if S is not ws.out or not steps:
        return S
    j, head = len(steps), ws.head
    weights, diffs = _newton_weights(dt, steps), ws.diffs[head:head + j]
    # einsum makes no BLAS call, and 1D runs make none: a process's first gemm
    # adds 0.25-0.5 MB to its peak resident memory.  2D runs call LAPACK anyway,
    # and there @ takes a quarter of einsum's time (6% of a plate_2d round).
    rows = weights @ diffs if ws.ab is not None else np.einsum("ij,jk->ik", weights, diffs)
    terms = rows[:j]
    sizes = np.maximum.reduce(np.abs(terms, out=terms), axis=1).tolist()
    kept, last = 0, math.inf
    for size in sizes:
        if not 0.0 < size < last:
            break
        kept, last = kept + 1, size
    if not kept:
        return S
    u = rows[j + kept - 1]
    u += S.reshape(-1)
    return u.reshape(S.shape)


def step(P: ProblemSpec, S: np.ndarray, dt: float, workspace: _Workspace | None = None) -> np.ndarray:
    """One backward-Euler step for all components in one semismooth Newton
    solve (see ``_solve``); raises SolverFailure when the solve stalls.

    ``workspace`` is the problem's ``_Workspace``, which the adaptive driver
    keeps for the whole run; without it the step builds a fresh one.  When S
    is the very array the workspace's last step returned, the solve starts
    from the polynomial through S and up to ``PREDICTOR_CAP`` accepted
    states behind it, of the order its cut leaves (``_extrapolate``; Hairer
    & Wanner, Solving ODEs II, 2nd ed., IV.8), so its first residual is
    O(dt^(k+1)) at order k on smooth stretches in place of O(dt); any other
    S (the retry of a step whose output was discarded, a caller's own
    state, a step without workspace) starts from S, and so does a history
    whose every term is cut (a constant one), without the Newton step a
    prediction takes, so that constant states stay fixed.  The workspace
    changes the path of the solve, never the stopping test its result
    passes.  The result then joins the states the workspace keeps.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    ws = _Workspace(P) if workspace is None else workspace
    if ws.dt != dt:
        ws.rescale(dt)
    S = np.asarray(S, dtype=float)
    F = eval_reaction(P.reaction, S)
    rhs = (S + dt * F).reshape(ws.m, ws.n)
    u = _extrapolate(S, dt, ws)
    U = _solve(ws, u.reshape(-1), rhs, u is not S).reshape(S.shape)
    ws.remember(S, U, dt)
    return U


# ---------------------------------------------------------------------------
# adaptive runs
# ---------------------------------------------------------------------------


def _dt_rates(P: ProblemSpec, sups: list[float]) -> tuple[float, float, float, float]:
    """The rates that cap dt at safety / rate, from the components' sup
    norms ``sups``: the growth envelope ell(r) relative to max(1, r), r the
    summed sup norm, and the Lipschitz bound on the max-norm box; then r and
    the box radius."""
    r, box = float(sum(sups)), float(max(sups))
    growth = ell(P.reaction, r)
    if not math.isinf(growth):
        growth /= max(1.0, r)
    return growth, lipschitz_bound(P.reaction, box), r, box


def propose_dt(P: ProblemSpec, sups: list[float], tc: TimeControl, dt_prev: float) -> float:
    """Next trial step from the components' sup norms ``sups`` of the
    current state: capped by dt_init, twice the previous step,
    safety * max(1, r) / ell(r) (a relative change of the summed sup norm r
    of at most about ``safety`` once r >= 1) and safety / L, L the
    reaction's Lipschitz bound on the box.  A bound that overflows to inf
    gives dt = 0, which the drivers report as a collapse."""
    dt = min(tc.dt_init, 2.0 * dt_prev)
    for bound in _dt_rates(P, sups)[:2]:
        if bound > 0:
            dt = min(dt, tc.safety / bound)
    return dt


def _extremes(S: np.ndarray) -> tuple[list[float], list[float]]:
    """Each component's sup norm and minimum over the nodes, equal to
    ``sup_norm(S[k])`` and ``S[k].min()`` bit for bit: from one max and one
    min reduction, as max|x| = max(max x, -min x) exactly, with abs taking
    the sign off a zero or a NaN as ``sup_norm``'s abs does."""
    flat = S.reshape(S.shape[0], -1)
    hi = np.maximum.reduce(flat, axis=1)
    lo = np.minimum.reduce(flat, axis=1)
    return np.abs(np.maximum(hi, np.negative(lo))).tolist(), lo.tolist()


class _AdaptiveRun:
    """Bookkeeping for one problem advanced by ``_advance``, with the
    problem's Newton workspace."""

    def __init__(self, P: ProblemSpec, observer=None):
        self.problem = P
        self.observer = observer
        self.workspace = _Workspace(P)
        self.times: list[float] = []
        self.dts: list[float] = []
        self.sups: list[list[float]] = []
        self.mins: list[list[float]] = []
        self.extras: dict[str, list[float]] = {}
        self.status = "completed"
        self.note = ""

    def record(self, t: float, dt: float, S: np.ndarray, clamp: float) -> bool:
        """Take S as the state at time t, reached by a step of dt, and
        record its sample; returns whether S is finite.  A non-finite S is
        first clamped to [-clamp, clamp] (NaN to clamp), and the sample and
        the observer see the clamped state."""
        sups, mins = _extremes(S)
        finite = all(map(math.isfinite, sups))
        if not finite:
            S = np.nan_to_num(S, nan=clamp, posinf=clamp, neginf=-clamp)
            sups, mins = _extremes(S)
        self.state = S
        self.times.append(t)
        self.dts.append(dt)
        self.sups.append(sups)
        self.mins.append(mins)
        if self.observer is not None:
            for key, val in self.observer(t, self.state).items():
                self.extras.setdefault(key, []).append(float(val))
        return finite

    def overall_sup(self, sample: int = -1) -> float:
        return max(self.sups[sample])

    def increasing(self) -> bool:
        return len(self.sups) >= 2 and self.overall_sup(-1) > self.overall_sup(-2)

    def classify_collapse(self) -> None:
        growth, lipschitz, r, box = _dt_rates(self.problem, self.sups[-1])
        names = (f"growth envelope ell({r:.6g}) / max(1, {r:.6g})",
                 f"Lipschitz bound on the box of radius {box:.6g}")
        overflowed = [name for name, rate in zip(names, (growth, lipschitz)) if math.isinf(rate)]
        if self.increasing():
            self.status = "blowup"
            self.note = "dt collapsed below dt_min while the sup norm was increasing"
        elif overflowed:
            self.status = "solver_failure"
            self.note = f"dt collapsed to 0: the {' and the '.join(overflowed)} overflowed to inf"
        else:
            self.status = "solver_failure"
            self.note = "dt collapsed below dt_min without sup-norm growth"

    def finish(self) -> Trajectory:
        F = self.problem.reaction
        return Trajectory(
            times=np.asarray(self.times),
            dts=np.asarray(self.dts),
            sup_norms=np.asarray(self.sups),
            min_values=np.asarray(self.mins),
            status=self.status,
            final_state=self.state,
            extras={k: np.asarray(v) for k, v in self.extras.items()},
            note=self.note,
            blowup_exponent=F.p - 2.0 if F.kind == "power" else 1.0,
        )


def _advance(problems, tc: TimeControl, observer=None, on_sample=None) -> list[Trajectory]:
    """Advance the problems on one shared adaptive time grid.

    Every attempt takes the smallest step any problem proposes (and no more
    than is left to t_end) and steps all problems in order; a
    ``SolverFailure`` in any of them halves dt for all.  A run goes on until
    t_end, a dt collapse, or a sample where some problem's state is
    non-finite or reaches the blow-up threshold, which ends every problem
    at that sample.  ``on_sample(*states)`` is called
    after each sample, the initial one included.  ``step`` and
    ``propose_dt`` are looked up as module globals at each call.
    """
    runs = [_AdaptiveRun(P, observer) for P in problems]
    for r in runs:
        r.record(0.0, 0.0, r.problem.initial_state(), tc.blowup_threshold)
    if on_sample is not None:
        on_sample(*(r.state for r in runs))
    t, dt_prev = 0.0, tc.dt_init
    stop = False
    while not stop and tc.t_end - t > tc.dt_min:
        dt = min([propose_dt(r.problem, r.sups[-1], tc, dt_prev) for r in runs] + [tc.t_end - t])
        while True:
            if dt < tc.dt_min:
                for r in runs:
                    r.classify_collapse()
                return [r.finish() for r in runs]
            try:
                new = [step(r.problem, r.state, dt, workspace=r.workspace) for r in runs]
                break
            except SolverFailure:
                dt *= 0.5
        t += dt
        dt_prev = dt
        for r, S in zip(runs, new):
            if not r.record(t, dt, S, tc.blowup_threshold):
                r.status = "blowup" if r.increasing() else "solver_failure"
                r.note = "non-finite state encountered"
                stop = True
            elif r.overall_sup() >= tc.blowup_threshold:
                r.status = "blowup"
                r.note = f"sup norm reached the blow-up threshold {tc.blowup_threshold:g}"
                stop = True
        if on_sample is not None:
            on_sample(*(r.state for r in runs))
    return [r.finish() for r in runs]


def run(P: ProblemSpec, tc: TimeControl, observer=None) -> Trajectory:
    """Advance the problem adaptively until t_end, blow-up or solver failure.

    ``observer(t, state) -> dict[str, float]`` is evaluated at every accepted
    step and collected into ``Trajectory.extras``.  Never raises across this
    boundary: failures are reported through ``Trajectory.status``.
    """
    return _advance([P], tc, observer)[0]


# ---------------------------------------------------------------------------
# blow-up detection and the existence horizon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupVerdict:
    kind: str  # "none" | "blowup"
    t_blowup: float | None = None
    ci_width: float | None = None
    note: str = ""


def _inverse_power_fit(times: np.ndarray, sups: np.ndarray, k: float) -> float | None:
    """Zero crossing of a linear fit to sup(t)^-k; None when not decreasing.
    The floor on sup keeps sup^-k at most 1e300."""
    inv = np.maximum(sups, 1e-300 ** (1.0 / max(k, 1.0))) ** -k
    if len(times) < 2:
        return None
    slope, intercept = np.polyfit(times, inv, 1)
    if slope >= 0:
        return None
    return float(-intercept / slope)


def detect_blowup(traj: Trajectory) -> BlowupVerdict:
    """Estimate the blow-up time by extrapolating sup^-k to zero, with
    k = ``traj.blowup_exponent`` (p - 2 for a power reaction), the power
    that falls linearly in time near a blow-up.

    Uses the last ``BLOWUP_WINDOW`` samples.  ``ci_width`` is the spread
    between the fits to the last BLOWUP_WINDOW and the last half of them:
    it measures how well one power law fits the samples, not the
    discretisation error of the scheme's blow-up time, which is larger.
    Runs that ended for other reasons (completed, dt collapse without
    growth) yield kind "none".
    """
    if traj.status != "blowup":
        note = traj.note if traj.status == "solver_failure" else ""
        return BlowupVerdict("none", note=note)
    sups = traj.overall_sup
    times = traj.times
    k = traj.blowup_exponent
    t10, t5 = (_inverse_power_fit(times[-n:], sups[-n:], k) for n in (BLOWUP_WINDOW, BLOWUP_WINDOW // 2))
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
