"""Reaction terms F(U), quasimonotonicity checks and the growth envelope.

Reactions are single-valued and locally Lipschitz.  Built-in kinds:

* ``zero``                 -- F = 0 (any number of components);
* ``power(p)``             -- scalar F(u) = |u|^(p-2) u with p > 2;
* ``nuclear(a, b)``        -- the two-component coupling
                              F1 = u1*u2 - b*u1, F2 = a*u1 (a >= 0, b > 0);
* ``custom``               -- user-supplied vectorized rule.

``check_sc`` verifies the structure condition behind the comparison
machinery: off-diagonal partial derivatives of F must be nonnegative
(quasimonotonicity) and all partials bounded on a box.  The sign condition
is checked on the nonnegative orthant of the box, where the comparison
arguments for these systems live (their solutions are nonnegative); the
returned Lipschitz constant is taken over the full symmetric box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Reaction",
    "OrderVerdict",
    "ScResult",
    "zero_reaction",
    "power_reaction",
    "nuclear_reaction",
    "custom_reaction",
    "eval_reaction",
    "check_sc",
    "check_order_F",
    "ell",
    "lipschitz_bound",
]


@dataclass(frozen=True)
class Reaction:
    kind: str
    m: int
    p: float = 0.0
    a: float = 0.0
    b: float = 0.0
    fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)


def zero_reaction(m: int = 1) -> Reaction:
    return Reaction("zero", m)


def power_reaction(p: float) -> Reaction:
    if p <= 2:
        raise ConfigurationError(f"power reaction needs p > 2, got {p}")
    return Reaction("power", 1, p=p)


def nuclear_reaction(a: float, b: float) -> Reaction:
    # a = 0 is admitted: it is the regime in which every solution is global
    if a < 0 or b <= 0:
        raise ConfigurationError(f"nuclear reaction needs a >= 0 and b > 0, got a={a}, b={b}")
    return Reaction("nuclear", 2, a=a, b=b)


def custom_reaction(m: int, fn: Callable[[np.ndarray], np.ndarray]) -> Reaction:
    """``fn`` maps an array of shape (m, ...) to componentwise values, same shape."""
    return Reaction("custom", m, fn=fn)


def eval_reaction(F: Reaction, U) -> np.ndarray:
    """Componentwise reaction values; U has shape (m,) or (m, ...)."""
    U = np.asarray(U, dtype=float)
    if U.shape[0] != F.m:
        raise ConfigurationError(f"expected {F.m} components, got {U.shape[0]}")
    if F.kind == "zero":
        return np.zeros_like(U)
    if F.kind == "power":
        return np.abs(U) ** (F.p - 2.0) * U
    if F.kind == "nuclear":
        u1, u2 = U[0], U[1]
        return np.stack([u1 * u2 - F.b * u1, F.a * u1])
    if F.kind == "custom":
        out = np.asarray(F.fn(U), dtype=float)
        if out.shape != U.shape:
            raise ConfigurationError(f"custom reaction returned shape {out.shape}, expected {U.shape}")
        return out
    raise ConfigurationError(f"unknown reaction kind {F.kind!r}")


@dataclass(frozen=True)
class ScResult:
    ok: bool
    l_m: float = float("nan")
    witness: tuple | None = None  # (k, j, U) with a negative off-diagonal partial


def _sample_box(m: int, lo: float, hi: float, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis)] * m
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids])  # (m, per_axis**m)


def check_sc(F: Reaction, box_radius: float, samples: int = 21, sign_tol: float = 1e-8) -> ScResult:
    """Structure-condition check on the box |U|_inf <= box_radius.

    Central finite differences (step 1e-6 * max(1, box_radius)) estimate the
    partials.  Off-diagonal partials must be >= -sign_tol on the nonnegative
    orthant of the box; the returned Lipschitz constant is the largest
    sampled |partial| over the full box, inflated by 10%, and inf when the
    reaction overflows on the box.
    """
    if box_radius <= 0:
        raise ConfigurationError(f"box_radius must be > 0, got {box_radius}")
    m = F.m
    step = 1e-6 * max(1.0, box_radius)
    U_full = _sample_box(m, -box_radius, box_radius, samples)
    U_nonneg = _sample_box(m, 0.0, box_radius, samples)
    l_m = 0.0
    witness = None
    for j in range(m):
        for U, check_sign in ((U_full, False), (U_nonneg, True)):
            e = np.zeros_like(U)
            e[j] = step
            with np.errstate(over="ignore", invalid="ignore"):
                dF = (eval_reaction(F, U + e) - eval_reaction(F, U - e)) / (2.0 * step)
            finite = np.all(np.isfinite(dF))
            l_m = max(l_m, float(np.max(np.abs(dF)))) if finite else math.inf
            if check_sign and witness is None:
                for k in range(m):
                    if k == j:
                        continue
                    bad = dF[k] < -sign_tol
                    if np.any(bad):
                        idx = int(np.argmax(bad))
                        witness = (k, j, tuple(float(v) for v in U[:, idx]))
                        break
    if witness is not None:
        return ScResult(False, witness=witness)
    return ScResult(True, l_m=1.1 * l_m)


@dataclass(frozen=True)
class OrderVerdict:
    status: str  # "holds" | "fails" | "inconclusive"
    witness: tuple | None = None  # (k, U, f1, f2)

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def check_order_F(
    F1: Reaction, F2: Reaction, box_radius: float, samples: int = 41, tol: float = 1e-12
) -> OrderVerdict:
    """Sampled verification of F1(U) <= F2(U) componentwise on |U|_inf <= box_radius.

    Identical built-in reactions hold without sampling; a sample that
    overflows makes the verdict inconclusive."""
    if F1.m != F2.m:
        raise ConfigurationError(f"component counts differ: {F1.m} vs {F2.m}")
    if F1.kind != "custom" and F1 == F2:
        return OrderVerdict("holds")
    U = _sample_box(F1.m, -box_radius, box_radius, samples if F1.m == 1 else min(samples, 25))
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = eval_reaction(F1, U)
        v2 = eval_reaction(F2, U)
    if not (np.all(np.isfinite(v1)) and np.all(np.isfinite(v2))):
        return OrderVerdict("inconclusive")
    excess = v1 - v2
    if np.max(excess) <= tol:
        return OrderVerdict("holds")
    k, idx = np.unravel_index(int(np.argmax(excess)), excess.shape)
    return OrderVerdict(
        "fails",
        (int(k), tuple(float(v) for v in U[:, idx]), float(v1[k, idx]), float(v2[k, idx])),
    )


def _power_or_inf(base: float, exponent: float) -> float:
    """base ** exponent for base >= 0, inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def ell(F: Reaction, r: float, samples: int = 65) -> float:
    """Growth envelope r + sup{|F(tau)| : |tau|_inf <= r} (closed forms where
    known); inf when it overflows."""
    if r < 0:
        raise ConfigurationError(f"ell needs r >= 0, got {r}")
    if F.kind == "zero":
        return r
    if F.kind == "power":
        return r + _power_or_inf(r, F.p - 1.0)
    if F.kind == "nuclear":
        return F.a * r + r * r
    U = _sample_box(F.m, -r, r, samples if F.m == 1 else min(samples, 17))
    return r + float(np.max(np.abs(eval_reaction(F, U))))


def lipschitz_bound(F: Reaction, box_radius: float) -> float:
    """Bound on all |dF^k/du_j| over |U|_inf <= box_radius (closed forms where
    known); inf when it overflows."""
    M = max(box_radius, 0.0)
    if F.kind == "zero":
        return 0.0
    if F.kind == "power":
        return (F.p - 1.0) * _power_or_inf(M, F.p - 2.0)
    if F.kind == "nuclear":
        return max(F.a, F.b + M, M)
    res = check_sc(F, max(M, 1e-8), samples=9)
    return res.l_m if res.ok else float("inf")
