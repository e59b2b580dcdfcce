"""Independent reference implementations used by the test suite.

These deliberately avoid the library's solution paths: the resolvent oracle
is a plain scalar bisection (the library uses closed forms and Newton steps
for the built-in kinds), so agreement is a genuine cross-check.
"""

from __future__ import annotations

import math


def oracle_resolvent(G, lam, r, tol=1e-13, max_iter=400):
    """Scalar bisection on x + lam*g(x) = r with endpoint-segment capture."""
    lo, hi = G.domain_lo, G.domain_hi

    def h(x):
        return x + lam * float(G.g(x))

    if math.isfinite(lo) and r <= h(lo):
        return lo
    if math.isfinite(hi) and r >= h(hi):
        return hi
    a = lo if math.isfinite(lo) else min(r, 0.0)
    while h(a) > r:
        a = a - max(1.0, abs(a))
    b = hi if math.isfinite(hi) else max(r, 0.0)
    while h(b) < r:
        b = b + max(1.0, abs(b))
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if h(mid) > r:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _oracle_bounds(G, x):
    """(inf, sup) of gamma(x) at a point x of G's closed domain."""
    g = float(G.g(x))
    lo = -math.inf if (x == G.domain_lo and G.seg_lo) else g
    hi = math.inf if (x == G.domain_hi and G.seg_hi) else g
    return lo, hi


def oracle_resolve_terms(terms, r, tol=1e-13, max_iter=400):
    """Scalar bisection on x + sum_i lam_i*g_i(x) = r over the common domain,
    capturing r on the vertical segments at its finite endpoints (value
    bounds summed over the terms)."""
    lo = max(G.domain_lo for _, G in terms)
    hi = min(G.domain_hi for _, G in terms)
    if lo > hi:
        raise ValueError("disjoint domains")

    def h(x):
        return x + sum(lam * float(G.g(x)) for lam, G in terms)

    def sup_at(x):
        return x + sum(lam * _oracle_bounds(G, x)[1] for lam, G in terms)

    def inf_at(x):
        return x + sum(lam * _oracle_bounds(G, x)[0] for lam, G in terms)

    if math.isfinite(lo) and r <= sup_at(lo):
        return lo
    if math.isfinite(hi) and r >= inf_at(hi):
        return hi
    a = lo if math.isfinite(lo) else min(r, 0.0)
    while h(a) > r:
        a = a - max(1.0, abs(a))
    b = hi if math.isfinite(hi) else max(r, 0.0)
    while h(b) < r:
        b = b + max(1.0, abs(b))
    for _ in range(max_iter):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if h(mid) > r:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
