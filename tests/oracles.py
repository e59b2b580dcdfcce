"""Independent reference implementations used by the test suite.

These deliberately avoid the library's solution paths: the resolvent oracle
is a plain scalar bisection (the library uses closed forms and Newton steps
for the built-in kinds), and the domination oracle checks the definition on
a grid (the library decides it in closed form), so agreement is a genuine
cross-check.  They read only a graph's kind and params, and take its
domain, selection and value set from their own closed form per kind, not
from the library's table.
The reaction oracles evaluate F from its kind and params by their own
formulas, and sample it on dense grids (order excess, finite-difference
partials), where the library decides each check in closed form.
"""

from __future__ import annotations

import math
import struct


def _oracle_domain(G):
    """The closed domain of G."""
    if G.kind == "dirichlet":
        return 0.0, 0.0
    if G.kind in ("extended_power", "extended_neumann"):
        return 0.0, math.inf
    if G.kind == "obstacle":
        return -G.params[0], G.params[0]
    return -math.inf, math.inf  # zero, linear, power


def _oracle_g(G, x):
    """The value of gamma at a point x inside G's domain (its only one)."""
    if G.kind == "linear":
        return G.params[0] * x
    if G.kind in ("power", "extended_power"):  # x >= 0 on the extension's domain
        alpha, q = G.params
        return math.copysign(alpha * abs(x) ** (q - 1.0), x)
    return 0.0  # zero, dirichlet, extended_neumann, obstacle


def _float_order(x):
    """An integer key of the float x, increasing with x (0.0 and -0.0 share 0)."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _from_float_order(k):
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def _bisect(h, r, lo, hi, tol, max_iter):
    """x with h(x) = r for nondecreasing h on [lo, hi] (a finite end is a
    bracket as it is): grow the infinite ends to a bracket [a, b], then
    halve it in float order, the midpoint halving the count of floats in
    between, so that a root of any size, down to the smallest subnormal, is
    reached in about 64 halvings.  Stops when b - a <= tol or a and b are
    adjacent floats, and returns their midpoint, formed so that it does not
    overflow near the largest float."""
    a = lo if math.isfinite(lo) else min(r, 0.0)
    while h(a) > r:
        a = a - max(1.0, abs(a))
    b = hi if math.isfinite(hi) else max(r, 0.0)
    while h(b) < r:
        b = b + max(1.0, abs(b))
    for _ in range(max_iter):
        ka, kb = _float_order(a), _float_order(b)
        if b - a <= tol or kb - ka <= 1:
            break
        mid = _from_float_order((ka + kb) // 2)
        if h(mid) > r:
            b = mid
        else:
            a = mid
    return a + 0.5 * (b - a)


def oracle_resolvent(G, lam, r, tol=1e-13, max_iter=400):
    """Scalar bisection on x + lam*g(x) = r with endpoint-segment capture."""
    lo, hi = _oracle_domain(G)

    def h(x):
        return x + lam * _oracle_g(G, x)

    if math.isfinite(lo) and r <= h(lo):
        return lo
    if math.isfinite(hi) and r >= h(hi):
        return hi
    return _bisect(h, r, lo, hi, tol, max_iter)


def _oracle_bounds(G, x):
    """(inf, sup) of gamma(x) at a point x of G's closed domain: a finite
    endpoint adds the vertical segment that makes the graph maximal."""
    lo, hi = _oracle_domain(G)
    g = _oracle_g(G, x)
    return (-math.inf if x == lo > -math.inf else g), (math.inf if x == hi < math.inf else g)


def oracle_resolve_terms(terms, r, tol=1e-13, max_iter=400):
    """Scalar bisection on x + sum_i lam_i*g_i(x) = r over the common domain,
    capturing r on the vertical segments at its finite endpoints (value
    bounds summed over the terms)."""
    lo = max(_oracle_domain(G)[0] for _, G in terms)
    hi = min(_oracle_domain(G)[1] for _, G in terms)
    if lo > hi:
        raise ValueError("disjoint domains")

    def h(x):
        return x + sum(lam * _oracle_g(G, x) for lam, G in terms)

    def sup_at(x):
        return x + sum(lam * _oracle_bounds(G, x)[1] for lam, G in terms)

    def inf_at(x):
        return x + sum(lam * _oracle_bounds(G, x)[0] for lam, G in terms)

    if math.isfinite(lo) and r <= sup_at(lo):
        return lo
    if math.isfinite(hi) and r >= inf_at(hi):
        return hi
    return _bisect(h, r, lo, hi, tol, max_iter)


def oracle_dominates(G1, G2):
    """A pair (r1, r2) with r1 > r2 in the domains and
    sup gamma2(r2) > inf gamma1(r1), or None if there is none on the grid:
    0, +-10^k for k from -12 to 12 in steps of 1/8, each finite domain
    endpoint, and the next float above each of these, so that the grid
    holds pairs as close as floats allow."""
    base = [0.0] + [s * 10.0 ** (k / 8.0) for k in range(-96, 97) for s in (1.0, -1.0)]
    base += [e for G in (G1, G2) for e in _oracle_domain(G) if math.isfinite(e)]
    grid = sorted({x for b in base for x in (b, math.nextafter(b, math.inf))})
    r2s = [x for x in grid if _oracle_domain(G2)[0] <= x <= _oracle_domain(G2)[1]]
    best = None  # (sup gamma2, r2) largest so far over r2 < r1
    i = 0
    for r1 in grid:
        if not _oracle_domain(G1)[0] <= r1 <= _oracle_domain(G1)[1]:
            continue
        while i < len(r2s) and r2s[i] < r1:
            sup2 = _oracle_bounds(G2, r2s[i])[1]
            if best is None or sup2 > best[0]:
                best = (sup2, r2s[i])
            i += 1
        if best is not None and best[0] > _oracle_bounds(G1, r1)[0]:
            return r1, best[1]
    return None


def _oracle_log_g(G, L):
    """ln |gamma(r)| at |r| = e^L by the formulas of ``_oracle_g`` taken in
    log space, so that |r| may lie beyond the floats; -inf where gamma is 0."""
    if G.kind == "linear":
        coef, e = G.params[0], 1.0
    elif G.kind in ("power", "extended_power"):
        coef, e = G.params[0], G.params[1] - 1.0
    else:
        return -math.inf
    return math.log(coef) + e * L if coef > 0.0 else -math.inf


def oracle_fails_beyond_floats(G1, G2, L=1e300):
    """True if sup gamma2(r) > inf gamma1(r) at some r = +-e^(+-L) inside
    both domains, evaluated in log space; there gamma1 and gamma2 are
    continuous, so r1 a little above r2 = r breaks the definition too.
    At L = 1e300 every difference of the exponents q, down to one ulp,
    outweighs any ratio of the coefs."""
    (lo1, hi1), (lo2, hi2) = _oracle_domain(G1), _oracle_domain(G2)
    for ln_s in (L, -L):
        far = ln_s > 0.0  # |r| beyond every finite domain endpoint
        if (hi1 == hi2 == math.inf) if far else min(hi1, hi2) > 0.0:
            if _oracle_log_g(G2, ln_s) > _oracle_log_g(G1, ln_s):  # gamma2(s) > gamma1(s) >= 0
                return True
        if (lo1 == lo2 == -math.inf) if far else max(lo1, lo2) < 0.0:
            if _oracle_log_g(G1, ln_s) > _oracle_log_g(G2, ln_s):  # gamma2(-s) > gamma1(-s)
                return True
    return False


def oracle_step_residual(P, S, dt, U):
    """Largest distance from a nodal value of ``U`` to the scalar resolvent
    of its backward-Euler row, over all components and nodes.

    Row of node i: (1 + sum_axes 2 mu) u_i - sum_axes mu (u_lo + u_hi)
    + dt beta(u_i) + dt (sum over boundary axes of 2/h) gamma(u_i)
    ∋ S_i + dt F_i(S), with mu = a dt / h^2 and a missing neighbour replaced
    by the mirror-image (ghost) node.  Freezing the neighbours and solving
    the node's inclusion by bisection gives the resolvent value; U solves
    the step exactly when every nodal value equals it.
    """
    import numpy as np

    from mmrd.reactions import eval_reaction

    F = eval_reaction(P.reaction, S)
    shape = P.mesh.shape
    worst = 0.0
    for k in range(P.m):
        a = P.diffusion[k]
        u = U[k]
        for node in np.ndindex(*shape):
            c = 1.0
            nb = 0.0
            flux = 0.0
            for ax, h in enumerate(P.mesh.spacing):
                mu = a * dt / h**2
                i, n = node[ax], shape[ax]
                lo = node[:ax] + (i - 1 if i > 0 else i + 1,) + node[ax + 1 :]
                hi = node[:ax] + (i + 1 if i < n - 1 else i - 1,) + node[ax + 1 :]
                c += 2.0 * mu
                nb += mu * (float(u[lo]) + float(u[hi]))
                if i in (0, n - 1):
                    flux += 2.0 / h
            r = (float(S[k][node]) + dt * float(F[k][node]) + nb) / c
            terms = [(dt / c, P.interior[k])]
            if flux:
                terms.append((dt * flux / c, P.boundary[k]))
            worst = max(worst, abs(float(u[node]) - oracle_resolve_terms(terms, r)))
    return worst


def oracle_apply_diffusion(mesh, f, a, bc):
    """a * Lap_h f with the flux law -a * d_nu f in gamma(f) closing the
    boundary rows, node by node.

    Interior neighbours give the 3-point (1D) / 5-point (2D) stencil.  At a
    boundary node the ghost value is eliminated through the flux law, with
    the minimal-absolute-value element of gamma at the boundary value
    (projected onto gamma's closed domain) as the flux; 2D corners apply
    the law on each face.
    """
    import numpy as np

    def section(v):
        x = min(max(v, _oracle_domain(bc)[0]), _oracle_domain(bc)[1])
        lo, hi = _oracle_bounds(bc, x)
        return 0.0 if lo <= 0.0 <= hi else (lo if lo > 0.0 else hi)

    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape)
    for node in np.ndindex(*f.shape):
        total = 0.0
        for ax, h in enumerate(mesh.spacing):
            i, n = node[ax], f.shape[ax]
            lo = node[:ax] + (i - 1,) + node[ax + 1 :]
            hi = node[:ax] + (i + 1,) + node[ax + 1 :]
            if 0 < i < n - 1:
                total += (f[lo] - 2.0 * f[node] + f[hi]) / h**2
            else:
                inner = hi if i == 0 else lo
                total += (2.0 * f[inner] - 2.0 * f[node]) / h**2
                total -= 2.0 / (a * h) * section(float(f[node]))
        out[node] = a * total
    return out


def _oracle_reaction(F, U):
    """F at the points U, shape (m, N), from the reaction's kind and params."""
    import numpy as np

    if F.kind == "power":
        return np.sign(U) * np.abs(U) ** (F.p - 1.0)
    if F.kind == "nuclear":
        return np.stack([U[0] * (U[1] - F.b), F.a * U[0]])
    return np.zeros_like(U)  # zero


def _oracle_grid(m, lo, hi, per_axis):
    """The points of a tensor grid on [lo, hi]^m, shape (m, per_axis**m)."""
    import numpy as np

    grids = np.meshgrid(*[np.linspace(lo, hi, per_axis)] * m, indexing="ij")
    return np.stack([g.ravel() for g in grids])


def oracle_order_excess(F1, F2, R, per_axis=41):
    """(largest excess F1^k - F2^k, largest |F1^k|, |F2^k|) sampled on
    [-R, R]^m, over a grid of ``per_axis`` points per axis."""
    import numpy as np

    U = _oracle_grid(F1.m, -R, R, per_axis)
    v1, v2 = _oracle_reaction(F1, U), _oracle_reaction(F2, U)
    return float(np.max(v1 - v2)), float(max(np.abs(v1).max(), np.abs(v2).max()))


def oracle_partials(F, lo, hi, per_axis=41):
    """Central differences of dF^k/du_j, shape (m, m, N), on a grid of
    [lo, hi]^m whose stencils stay inside the box (step 1e-4 (hi - lo)).

    Each is the mean of dF^k/du_j over its stencil, so no sampled |partial|
    exceeds the largest one on the box (up to rounding)."""
    import numpy as np

    h = 1e-4 * (hi - lo)
    U = _oracle_grid(F.m, lo + h, hi - h, per_axis)
    out = []
    for j in range(F.m):
        e = np.zeros_like(U)
        e[j] = h
        out.append((_oracle_reaction(F, U + e) - _oracle_reaction(F, U - e)) / (2.0 * h))
    return np.stack(out, axis=1)  # [k, j, point]
