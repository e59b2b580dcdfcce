"""Scalar maximal monotone graphs.

A graph is its (kind, params): ``MonotoneGraph(kind, params)`` stores
nothing else, and two graphs are equal exactly when their kinds and params
are.  Everything else comes from one table, ``KINDS``, with a row per kind:
its params by JSON name (with the default a scenario file may leave out),
its domain, a closed interval holding 0, and its law ``(coef, q)``: on the
domain the selection ``g`` is the odd power law coef * sign(r) * |r|^(q-1),
single-valued and nondecreasing.  Each finite endpoint of the domain
carries a vertical segment, ``(-inf, g(lo)]`` at the left one and
``[g(hi), +inf)`` at the right one, so the graph is maximal.  The seven
kinds are zero, linear (slope; q = 2), power (alpha, q), Dirichlet, the
extensions of power and zero flux to ``[0, inf)``, and obstacle (level);
coef is 0 for zero, Dirichlet, extended Neumann and obstacle.  They cover
every boundary/interior law in this package, and ``MonotoneGraph`` refuses
any other kind, and params that do not fit the kind.

The central operation is the resolvent ``r -> x`` solving
``x + lam * gamma(x) ∋ r``, also for weighted sums of several graphs
(needed by boundary rows of the implicit stepper, where the interior and
boundary graphs act on the same node).  Every built-in kind is its power
law plus the indicator of its domain, so any weighted sum of them is
solved in closed form or by a Newton iteration on the sum of the laws,
then clipped to the common domain.  A law with q = 2 is linear.  A single
power term with q = 5/2 or 3 (5/2 is the boundary law of every power
preset) has a closed-form root; any other power part, one term or several,
takes one Newton iteration that stops at a relative tolerance.

A ``ResolventPlan`` merges and splits one weighted sum once and gives its
resolvent and slope; ``plan.at(s)`` is the plan of the same sum with every
weight multiplied by s, made by rescaling scalars only.
``resolve_terms``/``resolvent_slope`` build a plan from the terms they are
given, or take one: the implicit stepper builds one per node class and
run, and passes it to them at the step's scale.

``dominates`` decides the ordering modes of the comparison theorem in
closed form, from the two domains and laws alone: nothing is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "MonotoneGraph",
    "DominationVerdict",
    "zero_graph",
    "linear_graph",
    "power_graph",
    "dirichlet_graph",
    "extended_power_graph",
    "extended_neumann_graph",
    "obstacle_graph",
    "eval_graph",
    "resolvent",
    "resolve_terms",
    "resolvent_slope",
    "yosida",
    "dominates",
]

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 200

# the values each param admits, by JSON name
_RULES = {
    "slope": (lambda v: v >= 0, "slope >= 0"),
    "alpha": (lambda v: v >= 0, "alpha >= 0"),
    "q": (lambda v: v > 1, "q > 1"),
    "level": (lambda v: 0 < v < math.inf, "0 < level < inf"),
}


class _Kind(NamedTuple):
    params: dict[str, float]  # JSON name -> JSON default, in the order of MonotoneGraph.params
    domain: Callable[[tuple], tuple[float, float]]
    law: Callable[[tuple], tuple[float, float]]  # (coef, q): coef * sign(r) * |r|^(q-1)


def _fixed(*values):
    return lambda p: values


_LINE, _HALF_LINE, _FLAT = _fixed(-math.inf, math.inf), _fixed(0.0, math.inf), _fixed(0.0, 2.0)
_POWER = {"alpha": 1.0, "q": 2.0}

KINDS = {
    "zero": _Kind({}, _LINE, _FLAT),
    "linear": _Kind({"slope": 1.0}, _LINE, lambda p: (p[0], 2.0)),
    "power": _Kind(_POWER, _LINE, lambda p: p),
    "dirichlet": _Kind({}, _fixed(0.0, 0.0), _FLAT),
    "extended_power": _Kind(_POWER, _HALF_LINE, lambda p: p),
    "extended_neumann": _Kind({}, _HALF_LINE, _FLAT),
    "obstacle": _Kind({"level": 1.0}, lambda p: (-p[0], p[0]), _FLAT),
}


@dataclass(frozen=True)
class MonotoneGraph:
    """A maximal monotone graph on R x R, given whole by its kind, one of
    ``KINDS``, and params that fit the kind (see module docstring).

    Params are stored as floats, so ``power_graph(1, 3) ==
    power_graph(1.0, 3.0)``.  Each error names the field or param at fault
    first, as ``"q: ..."``, so a scenario parser can prefix its JSON path.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind: unknown graph kind {self.kind!r}")
        names = KINDS[self.kind].params
        if len(self.params) != len(names):
            raise ConfigurationError(
                f"params: {self.kind} graph needs params ({', '.join(names)}), got {self.params}")
        params = tuple(float(v) for v in self.params)
        for name, v in reversed(tuple(zip(names, params))):  # q before alpha
            ok, rule = _RULES[name]
            if not ok(v):
                raise ConfigurationError(f"{name}: {self.kind} graph needs {rule}, got {v}")
        object.__setattr__(self, "params", params)

    @property
    def domain_lo(self) -> float:
        return KINDS[self.kind].domain(self.params)[0]

    @property
    def domain_hi(self) -> float:
        return KINDS[self.kind].domain(self.params)[1]

    def contains(self, r: float) -> bool:
        return self.domain_lo <= r <= self.domain_hi

    @property
    def law(self) -> tuple[float, float]:
        """(coef, q) of the power law coef * sign(r) * |r|^(q-1) that the
        selection follows on the domain."""
        return KINDS[self.kind].law(self.params)

    def g(self, r):
        """Selection value(s), the power law at r clipped to the domain (+0.0
        where coef is 0); accepts scalars or arrays."""
        coef, q = self.law
        x = np.clip(np.asarray(r, dtype=float), self.domain_lo, self.domain_hi)
        if coef == 0.0:
            return np.zeros_like(x)
        return coef * np.sign(x) * np.abs(x) ** (q - 1.0)


def zero_graph() -> MonotoneGraph:
    return MonotoneGraph("zero")


def linear_graph(slope: float = 1.0) -> MonotoneGraph:
    return MonotoneGraph("linear", (slope,))


def power_graph(alpha: float, q: float) -> MonotoneGraph:
    """g(r) = alpha * sign(r) * |r|^(q-1) on all of R."""
    return MonotoneGraph("power", (alpha, q))


def dirichlet_graph() -> MonotoneGraph:
    """Domain {0}, value set R at 0: the homogeneous Dirichlet boundary law."""
    return MonotoneGraph("dirichlet")


def extended_power_graph(alpha: float, q: float) -> MonotoneGraph:
    """Power-law flux restricted to [0, inf) with value set (-inf, 0] at 0."""
    return MonotoneGraph("extended_power", (alpha, q))


def extended_neumann_graph() -> MonotoneGraph:
    """Zero flux on (0, inf) with value set (-inf, 0] at 0."""
    return MonotoneGraph("extended_neumann")


def obstacle_graph(level: float) -> MonotoneGraph:
    """Subdifferential of the indicator of [-level, level]."""
    return MonotoneGraph("obstacle", (level,))


# ---------------------------------------------------------------------------
# set-valued evaluation
# ---------------------------------------------------------------------------


def eval_graph(G: MonotoneGraph, r: float) -> tuple[float, float] | None:
    """Value set gamma(r) as a closed interval (vmin, vmax), or None if empty.

    A finite endpoint of the domain carries its vertical segment, so an
    endpoint of the value set may be infinite there.
    """
    if not G.contains(r):
        return None
    g = float(G.g(r))
    lo = -math.inf if r == G.domain_lo > -math.inf else g
    hi = math.inf if r == G.domain_hi < math.inf else g
    return lo, hi


# ---------------------------------------------------------------------------
# resolvents
# ---------------------------------------------------------------------------


def _power_root(t: np.ndarray, beta: float, q: float) -> np.ndarray:
    """Solve xi + beta * xi^(q-1) = t for xi >= 0, elementwise (t >= 0).

    q = 5/2 and 3 have closed forms.  For q = 5/2, xi = t / W^2 where
    W >= 1 is the largest root of the depressed cubic W^3 - W = beta*sqrt(t),
    given by Viete's trigonometric form (three real roots, x <= 1) or its
    hyperbolic form (one, x > 1); see Nickalls, Math. Gazette 77 (1993).
    Other q go to ``_power_sum_root``.
    """
    if beta == 0.0:
        return t.copy()
    if q == 2.5:
        # x = (3 sqrt(3) / 2) beta sqrt(t) and W = (2 / sqrt(3)) w, with
        # w = cos(arccos(x) / 3) for x <= 1, cosh(arccosh(x) / 3) above
        k = 1.5 * math.sqrt(3.0) * beta
        may_overflow = k >= 1e154  # sqrt(t) <= 1.34e154 for finite t
        if may_overflow:
            with np.errstate(over="ignore"):
                x = k * np.sqrt(t)
        else:
            x = k * np.sqrt(t)
        w = np.cos(np.arccos(np.minimum(x, 1.0)) / 3.0)
        big = x > 1.0
        if big.any():
            w[big] = np.cosh(np.arccosh(x[big]) / 3.0)
        xi = 0.75 * t / (w * w)
        if may_overflow:
            # where x is inf, arccosh(x) = ln(2x) and w = (2x)^(1/3) / 2 to
            # double precision, so xi = (t / beta)^(2/3)
            over = np.isinf(x) & np.isfinite(t)
            xi[over] = (np.cbrt(t[over]) / np.cbrt(beta)) ** 2
        return xi
    if q == 3.0:
        # stable root of beta*xi^2 + xi - t = 0; where 4 beta t overflows,
        # sqrt(1 + 4 beta t) = 2 sqrt(beta) sqrt(t) to double precision
        may_overflow = 4.0 * beta > 1.0  # else 4 beta t <= t
        if may_overflow:
            with np.errstate(over="ignore"):
                s = 4.0 * beta * t
        else:
            s = 4.0 * beta * t
        xi = t / (0.5 + 0.5 * np.sqrt(1.0 + s))
        if may_overflow:
            over = np.isinf(s) & np.isfinite(t)
            xi[over] = np.sqrt(t[over]) / math.sqrt(beta)
        return xi
    return _power_sum_root(t, [(beta, q)])


def _power_sum_root(t: np.ndarray, powers: list[tuple[float, float]]) -> np.ndarray:
    """Solve xi + sum_j beta_j * xi^(q_j-1) = t for xi >= 0, elementwise (t >= 0).

    Newton from xi = min(t, min_j (t / beta_j)^(1/(q_j-1))) inside the
    bracket [0, xi], which holds the root; there no term exceeds t.  A term
    with q > 2 is evaluated as (b * xi)^(q-1), b = beta^(1/(q-1)), so that it
    does not overflow where xi^(q-1) alone would (a tiny beta, xi near the
    largest float).  A step that leaves the current bracket is replaced by
    bisection of the bracket; so is a step where the slope is not finite:
    from xi = 0, where a term with q < 2 has unbounded slope and the sum is
    NaN, and near it, where such a slope overflows (q near 1, a root near
    the smallest normal float) and the Newton step would be a false 0.
    Stops on a step of NEWTON_TOL relative to xi.
    """
    hi = t.copy()
    with np.errstate(over="ignore"):  # an overflowed candidate is not the min
        for beta, q in powers:
            hi = np.minimum(hi, (t / beta) ** (1.0 / (q - 1.0)))
    # beta * xi^(q-1) as a * ((b * xi) * s), s = (b * xi)^(q-2), with slope
    # a * b * (q-1) * s; a = 1 for q > 2, b = 1 for q < 2, where
    # beta^(1/(q-1)) may overflow, so no factor exceeds t below hi
    terms = [(1.0, beta ** (1.0 / (q - 1.0)), q - 2.0) if q > 2.0 else (beta, 1.0, q - 2.0)
             for beta, q in powers]
    lo = np.zeros_like(t)
    xi = hi.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            f, df = xi - t, 1.0
            for a, b, e in terms:
                bx = b * xi
                s = bx ** e
                f += a * (bx * s)
                df = df + a * b * (e + 1.0) * s
            np.copyto(lo, xi, where=f <= 0.0)
            np.copyto(hi, xi, where=f >= 0.0)
            xi_new = xi - f / df
            inside = (xi_new >= lo) & (xi_new <= hi) & np.isfinite(df)
            if not inside.all():
                xi_new = np.where(inside, xi_new, 0.5 * (lo + hi))
            done = (np.abs(xi_new - xi) <= NEWTON_TOL * xi).all()
            xi = xi_new
            if done:
                break
    return xi


class ResolventPlan:
    """The resolvent R of x + sum_i w_i * gamma_i(x) ∋ r for one weighted
    graph sum, merged and split once; iterating the plan gives its terms
    (w_i, gamma_i), so it can stand for them as the ``terms`` of
    ``resolve_terms`` and ``resolvent_slope``, which then use it as it is.

    The sum is split into its common domain [lo, hi], its linear
    coefficient ``linear`` = sum_i w_i * coef_i over the laws with q = 2,
    and its power part ``powers`` = {q: sum_i w_i * coef_i} over the others,
    each read from a term's ``law`` (coef_i, q_i).
    ``at(s)`` is the plan of the same sum with every weight multiplied by
    s, made by rescaling these scalars only; a term whose weight s * w
    rounds to 0 is absent there, as in ``_merge_terms``, but its domain
    still bounds the others'.  A plan with no terms is the identity.

    R(r) = clip(sign(r) * xi, lo, hi), xi the root of
    c * xi + sum_q A_q * xi^(q-1) = |r|, c = 1 + linear.  Every finite
    endpoint of [lo, hi] carries a vertical segment of some term, so
    clipping the resolvent of the smooth sum is exact.  A power term whose
    coefficient rounds to 0 is absent too: its value is then exactly 0 and
    it would give 0 * inf in the slope at x = 0 when q < 2.
    """

    __slots__ = ("terms", "lo", "hi", "linear", "powers", "key", "c", "roots", "slopes")

    def __init__(self, terms: Sequence[tuple[float, MonotoneGraph]]):
        self.terms = _merge_terms(terms)
        self.lo = max((G.domain_lo for _, G in self.terms), default=-math.inf)
        self.hi = min((G.domain_hi for _, G in self.terms), default=math.inf)
        if self.lo > self.hi:
            raise ConfigurationError("graphs with disjoint domains combined in one inclusion")
        linear = 0.0
        powers: dict[float, float] = {}
        for w, G in self.terms:
            coef, q = G.law
            if q == 2.0:  # coef * x^(2-1) is linear
                linear += w * coef
            elif w * coef > 0.0:
                powers[q] = powers.get(q, 0.0) + w * coef
        self._split(linear, powers)

    def _split(self, linear: float, powers: dict[float, float]) -> None:
        self.linear, self.powers = linear, powers
        # equal keys give equal resolvents at every scale
        self.key = (self.lo, self.hi, linear, tuple(sorted(powers.items())))
        self.c = 1.0 + linear
        self.roots = [(A / self.c, q) for q, A in powers.items() if A / self.c > 0.0]
        self.slopes = [(A * (q - 1.0), q - 2.0) for q, A in powers.items() if A * (q - 1.0) > 0.0]

    def at(self, s: float) -> "ResolventPlan":
        plan = object.__new__(ResolventPlan)
        plan.terms = [(s * w, G) for w, G in self.terms if s * w > 0.0]
        plan.lo, plan.hi = self.lo, self.hi
        plan._split(s * self.linear, {q: s * A for q, A in self.powers.items()})
        return plan

    def __iter__(self):
        return iter(self.terms)

    def value(self, r: np.ndarray) -> np.ndarray:
        """R(r); the identity returns r itself."""
        if not self.terms:
            return r
        if not self.roots:
            x = r / self.c  # sign(r) * |r| / c, exactly
        else:
            t = np.abs(r)
            if self.c != 1.0:
                t /= self.c
            one = len(self.roots) == 1
            xi = _power_root(t, *self.roots[0]) if one else _power_sum_root(t, self.roots)
            x = np.copysign(xi, r)
        if self.lo > -math.inf:
            np.maximum(x, self.lo, out=x)
        if self.hi < math.inf:
            np.minimum(x, self.hi, out=x)
        return x

    def slope(self, x: np.ndarray) -> np.ndarray:
        """dR/dr at R(r) = x: 1 / (c + sum_q A_q * (q-1) * |x|^(q-2))
        where x lies strictly inside [lo, hi], 0 elsewhere (where it was
        clipped to an endpoint, and at a non-finite x); an element of the
        generalised (Clarke) derivative, as used by a semismooth Newton
        solve.  The identity has slope 1 everywhere."""
        if not self.terms:
            return np.ones_like(x)
        denom = np.full_like(x, self.c)
        if self.slopes:
            with np.errstate(divide="ignore"):  # |x|^(q-2) is infinite at 0 when q < 2
                for coef, e in self.slopes:
                    denom += coef * np.abs(x) ** e
        return np.where((x > self.lo) & (x < self.hi), 1.0 / denom, 0.0)


def _plan(terms) -> ResolventPlan:
    return terms if isinstance(terms, ResolventPlan) else ResolventPlan(terms)


def resolvent_slope(x, terms: Sequence[tuple[float, MonotoneGraph]]) -> np.ndarray:
    """Derivative dx/dr of the resolvent of ``resolve_terms``, given its
    value x (see ``ResolventPlan.slope``)."""
    return _plan(terms).slope(np.asarray(x, dtype=float))


def _merge_terms(terms: Sequence[tuple[float, MonotoneGraph]]) -> list[tuple[float, MonotoneGraph]]:
    merged: list[tuple[float, MonotoneGraph]] = []
    for lam, G in terms:
        if lam < 0:
            raise ConfigurationError(f"graph weight must be >= 0, got {lam}")
        if lam == 0.0 or G.kind == "zero":
            continue
        for i, (lam0, G0) in enumerate(merged):
            if G0 == G:
                merged[i] = (lam0 + lam, G0)
                break
        else:
            merged.append((lam, G))
    return merged


def resolve_terms(r, terms: Sequence[tuple[float, MonotoneGraph]]) -> np.ndarray:
    """Solve x + sum_i lam_i * gamma_i(x) ∋ r elementwise.

    ``terms`` is a sequence of (lam_i, graph_i) with lam_i >= 0, or a
    ``ResolventPlan`` (``plan.at(s)``), which is used as it is instead of
    being merged and split again.  Every graph is maximal, so every entry
    of ``r`` has a solution, found in closed form or by a safeguarded
    Newton iteration (see ``ResolventPlan``).
    """
    r = np.asarray(r, dtype=float)
    x = _plan(terms).value(r)
    return r.copy() if x is r else x


def resolvent(G: MonotoneGraph, lam: float, r: float) -> float:
    """The unique x in the closed domain with x + lam * gamma(x) ∋ r (lam > 0)."""
    if lam <= 0:
        raise ConfigurationError(f"resolvent needs lam > 0, got {lam}")
    return float(resolve_terms(np.asarray([r], dtype=float), [(lam, G)])[0])


def yosida(G: MonotoneGraph, lam: float, r: float) -> float:
    """Yosida approximation (r - resolvent(G, lam, r)) / lam."""
    return (r - resolvent(G, lam, r)) / lam


# ---------------------------------------------------------------------------
# domination (hypothesis checks for the ordering of boundary/interior laws)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationVerdict:
    """Outcome of ``dominates``: status in {'holds', 'fails'},
    mode in {'i', 'ii', 'iii'} when it holds, witness (r1, r2, inf1, sup2) on failure."""

    status: str
    mode: str | None = None
    witness: tuple | None = None

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _witness(G1: MonotoneGraph, G2: MonotoneGraph, r1: float, r2: float) -> tuple | None:
    """(r1, r2, inf gamma1(r1), sup gamma2(r2)) if these floats show
    sup gamma2(r2) > inf gamma1(r1) with neither selection overflowing."""
    with np.errstate(over="ignore"):
        inf1, sup2 = eval_graph(G1, r1)[0], eval_graph(G2, r2)[1]
        finite = np.isfinite(G1.g(r1)) and np.isfinite(G2.g(r2))
    return (r1, r2, inf1, sup2) if finite and sup2 > inf1 else None


def _law_witness(G1, G2, side, reach, a_u, q_u, a_l, q_l) -> tuple | None:
    """A witness on the half-line of sign ``side`` where the lower law
    a_l s^(q_l-1) exceeds the upper one a_u s^(q_u-1) at s = |r| in
    (0, reach]: where it is twice as large, 2^(1/(q_l - q_u)) past the
    crossover r* = (a_l / a_u)^(1/(q_u - q_l)), else at 2 r* or r* / 2, at
    s = 1, or where the lower law is 2^+-1022, the farthest from r* that it
    stays normal, whichever lies on the failing side and in the floats; at
    s = 1 (or reach) if it fails everywhere."""
    logs = [0.0]
    if a_u > 0.0 and q_u != q_l:
        log_cross = (math.log2(a_l) - math.log2(a_u)) / (q_u - q_l)
        d = 1.0 / (q_l - q_u)
        far = min(max((math.copysign(1022.0, d) - math.log2(a_l)) / (q_l - 1.0), -1074.0), 1023.0)
        logs = [v for v in (log_cross + d, log_cross + math.copysign(1.0, d), 0.0, far)
                if (v - log_cross) * d > 0.0 and -1074.0 <= v < 1024.0]
    for v in logs:
        s_up = min(math.nextafter(2.0**v, math.inf), reach)  # the upper law at s_up
        s = math.nextafter(s_up, 0.0)
        w = _witness(G1, G2, *((s_up, s) if side > 0 else (-s, -s_up)))
        if w is not None:
            return w
    return None


def dominates(
    G1: MonotoneGraph, G2: MonotoneGraph, modes: Sequence[str] = ("i", "iii", "ii")
) -> DominationVerdict:
    """Check whether the pair (G1, G2) satisfies one of the ordering modes.

    (i)   the graphs are equal (the same kind and params);
    (iii) sup D(G1) <= inf D(G2) (disjoint/touching domains, G1 below G2);
    (ii)  sup gamma2(r2) <= inf gamma1(r1) whenever r1 > r2 in the
          respective domains.

    Mode (ii) is decided in closed form on the whole domains.  It fails if
    D2 reaches below a finite inf D1 (the segment of gamma1 there reaches
    down to -inf) or if a finite sup D2 lies below sup D1 (the segment of
    gamma2 reaches up to +inf).  Otherwise it holds exactly when
    gamma2 <= gamma1 on J = (inf D2, sup D1], where both follow their power
    laws (``MonotoneGraph.law``).  Every domain holds 0, and a graph whose
    coef is not 0 lives on R or [0, inf), so on each half-line of J either
    one law is 0 there or J covers the whole half-line; the verdict then
    compares the coefs' signs, the q's, and the coefs when the q's are equal.
    The witness (r1, r2, inf1, sup2) is placed with the crossover of the two
    laws, on either failing half-line, and is None when no pair of floats
    shows the failure with normal values (it lies beyond the floats, or
    only values below the smallest normal float show it).
    """
    if "i" in modes and G1 == G2:
        return DominationVerdict("holds", "i")
    lo1, hi1 = G1.domain_lo, G1.domain_hi
    lo2, hi2 = G2.domain_lo, G2.domain_hi
    if "iii" in modes and hi1 <= lo2:
        return DominationVerdict("holds", "iii")
    if "ii" not in modes:
        return DominationVerdict("fails")
    if lo2 < lo1 or hi2 < hi1:  # gamma1(lo1) reaches down to -inf, or gamma2(hi2) up to +inf
        r1, r2 = ((lo1, max(lo2, min(lo1 - 1.0, math.nextafter(lo1, -math.inf)))) if lo2 < lo1
                  else (min(hi1, max(hi2 + 1.0, math.nextafter(hi2, math.inf))), hi2))
        return DominationVerdict("fails", None, _witness(G1, G2, r1, r2))
    # gamma2 <= gamma1 reads a2 s^(q2-1) <= a1 s^(q1-1) at r = s in (0, hi1]
    # and a1 s^(q1-1) <= a2 s^(q2-1) at r = -s, s in (0, -lo2)
    failing = [(side, reach, a_u, q_u, a_l, q_l) for side, reach, (a_u, q_u), (a_l, q_l)
               in ((1.0, hi1, G1.law, G2.law), (-1.0, -lo2, G2.law, G1.law))
               if reach > 0.0 and a_l > 0.0 and (a_u == 0.0 or q_u != q_l or a_l > a_u)]
    # one half-line may fail only beyond the floats while the other shows it
    witness = next(filter(None, (_law_witness(G1, G2, *half_line) for half_line in failing)), None)
    return DominationVerdict("fails", None, witness) if failing else DominationVerdict("holds", "ii")
