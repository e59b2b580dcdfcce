"""Reaction terms F(U), the comparison checks on them and the growth envelope.

Reactions are single-valued and locally Lipschitz.  A reaction is its kind
and params; the kinds are:

* ``zero``                 -- F = 0 (any number of components);
* ``power(p)``             -- scalar F(u) = |u|^(p-2) u with p > 2;
* ``nuclear(a, b)``        -- the two-component coupling
                              F1 = u1*u2 - b*u1, F2 = a*u1 (a >= 0, b > 0).

Every check on a reaction is decided from its kind and params, in closed
form.

Every kind meets the structure condition behind the comparison machinery:
its off-diagonal partial derivatives are nonnegative (quasimonotonicity) on
the nonnegative orthant, where the comparison arguments for these systems
live (their solutions are nonnegative), and all its partials are bounded
on the box.  For ``nuclear``, dF1/du2 = u1 >= 0 and dF2/du1 = a >= 0, and
``zero`` and ``power`` have no off-diagonal partials.  The bound on the
partials, L_M, is ``lipschitz_bound``, over the full symmetric box.

``check_order_F`` is the ordering F1 <= F2 of the comparison theorem,
checked on the symmetric box [-R, R]^m (R > 0).  On that box two reactions
of these kinds are ordered only when they are equal, since F1 - F2 changes
sign with u1 otherwise: a power law against zero, or two power laws, differ
by an odd function of u, and two nuclear couplings with different (a, b)
by (b2 - b1) u1 and (a1 - a2) u1.  Data known to stay nonnegative can take
A4 a priori instead (``check_assumptions(..., a4_apriori=True)``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Reaction",
    "OrderVerdict",
    "zero_reaction",
    "power_reaction",
    "nuclear_reaction",
    "eval_reaction",
    "check_order_F",
    "ell",
    "lipschitz_bound",
]


@dataclass(frozen=True)
class Reaction:
    """A reaction of one of the module's kinds; params a kind does not use
    stay 0, so equal reactions are equal functions."""

    kind: str
    m: int
    p: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        fits = {"zero": self.m >= 1, "power": self.m == 1, "nuclear": self.m == 2}
        if self.kind not in fits:
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}")
        if not fits[self.kind]:
            raise ConfigurationError(f"{self.kind} reaction cannot have {self.m} components")
        if self.kind == "power" and not self.p > 2:
            raise ConfigurationError(f"power reaction needs p > 2, got {self.p}")
        # a = 0 is admitted: it is the regime in which every solution is global
        if self.kind == "nuclear" and not (self.a >= 0 and self.b > 0):
            raise ConfigurationError(
                f"nuclear reaction needs a >= 0 and b > 0, got a={self.a}, b={self.b}")
        used = {"zero": (), "power": ("p",), "nuclear": ("a", "b")}[self.kind]
        stray = [name for name in ("p", "a", "b") if name not in used and getattr(self, name)]
        if stray:
            raise ConfigurationError(f"{self.kind} reaction takes no {', '.join(stray)}")


def zero_reaction(m: int = 1) -> Reaction:
    return Reaction("zero", m)


def power_reaction(p: float) -> Reaction:
    return Reaction("power", 1, p=p)


def nuclear_reaction(a: float, b: float) -> Reaction:
    return Reaction("nuclear", 2, a=a, b=b)


def eval_reaction(F: Reaction, U) -> np.ndarray:
    """Componentwise reaction values; U has shape (m,) or (m, ...)."""
    U = np.asarray(U, dtype=float)
    if U.shape[0] != F.m:
        raise ConfigurationError(f"expected {F.m} components, got {U.shape[0]}")
    if F.kind == "zero":
        return np.zeros_like(U)
    if F.kind == "power":
        return np.abs(U) ** (F.p - 2.0) * U
    # filled in place; [k, ...] keeps a 0-d view for U of shape (2,)
    out = np.empty_like(U)
    u1, u2, f1, f2 = U[0, ...], U[1, ...], out[0, ...], out[1, ...]
    np.multiply(F.b, u1, out=f2)
    np.multiply(u1, u2, out=f1)
    np.subtract(f1, f2, out=f1)
    np.multiply(F.a, u1, out=f2)
    return out


@dataclass(frozen=True)
class OrderVerdict:
    status: str  # "holds" | "fails"
    witness: tuple | None = None  # (k, U, f1, f2)

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def check_order_F(F1: Reaction, F2: Reaction, box_radius: float) -> OrderVerdict:
    """F1(U) <= F2(U) componentwise on |U|_inf <= box_radius: it holds
    exactly when F1 == F2 (module docstring).

    The witness of a failure is the point of {-R, -R/2, R/2, R}^m with the
    largest excess F1^k - F2^k, which is positive there in exact arithmetic
    (two power laws differ by an odd function that vanishes only at
    |u| = 1); it is None when no grid value of the excess is positive in
    floats: when every value overflows, or when the reactions differ only
    at the rounding level of their values."""
    if F1.m != F2.m:
        raise ConfigurationError(f"component counts differ: {F1.m} vs {F2.m}")
    if F1 == F2:
        return OrderVerdict("holds")
    R = box_radius
    U = np.array(list(itertools.product((-R, -0.5 * R, 0.5 * R, R), repeat=F1.m))).T
    with np.errstate(over="ignore", invalid="ignore"):
        v1, v2 = eval_reaction(F1, U), eval_reaction(F2, U)
        excess = v1 - v2
    excess[np.isnan(excess)] = -math.inf
    k, idx = np.unravel_index(int(np.argmax(excess)), excess.shape)
    if not excess[k, idx] > 0:
        return OrderVerdict("fails")
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


def ell(F: Reaction, r: float) -> float:
    """Growth envelope of F at the state radius r; inf when it overflows.

    * ``zero``: r;
    * ``power(p)``: r + r^(p-1), which is r + sup{|F(tau)| : |tau| <= r};
    * ``nuclear(a, b)``: a*r + r^2, the sum of the one-sided bounds
      F1 = u1*u2 - b*u1 <= r^2 and F2 = a*u1 <= a*r on the nonnegative part
      of the box |U|_inf <= r, where these systems' solutions live; it is
      neither r + sup|F| on the box (no r term, and b is not used) nor a
      bound on |F1| there.
    """
    if r < 0:
        raise ConfigurationError(f"ell needs r >= 0, got {r}")
    if F.kind == "zero":
        return r
    if F.kind == "power":
        return r + _power_or_inf(r, F.p - 1.0)
    return F.a * r + r * r


def lipschitz_bound(F: Reaction, box_radius: float) -> float:
    """Bound on all |dF^k/du_j| over |U|_inf <= box_radius; inf when it
    overflows."""
    M = max(box_radius, 0.0)
    if F.kind == "zero":
        return 0.0
    if F.kind == "power":
        return (F.p - 1.0) * _power_or_inf(M, F.p - 2.0)
    return max(F.a, F.b + M, M)
