"""Unit and property tests for monotone graphs, resolvents and domination."""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmrd import (
    ConfigurationError,
    MonotoneGraph,
    dirichlet_graph,
    dominates,
    eval_graph,
    extended_neumann_graph,
    extended_power_graph,
    linear_graph,
    obstacle_graph,
    power_graph,
    resolvent,
    yosida,
    zero_graph,
)
from mmrd import graphs
from mmrd.graphs import resolve_terms, resolvent_slope
from oracles import (
    oracle_dominates,
    oracle_fails_beyond_floats,
    oracle_resolve_terms,
    oracle_resolvent,
)


LIBRARY_GRAPHS = {
    "linear": linear_graph(1.0),
    "power_1_1.5": power_graph(1.0, 1.5),
    "power_1_3": power_graph(1.0, 3.0),
    "obstacle_1": obstacle_graph(1.0),
    "extended_power": extended_power_graph(1.0, 2.0),
    "extended_neumann": extended_neumann_graph(),
    "dirichlet": dirichlet_graph(),
}


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_graph_domains_and_segments():
    d = MonotoneGraph("dirichlet")
    assert (d.domain_lo, d.domain_hi) == (0.0, 0.0)
    assert eval_graph(d, 0.0) == (-math.inf, math.inf)

    p = MonotoneGraph("power", (1.0, 3.0))
    assert p.domain_lo == -math.inf and p.domain_hi == math.inf
    assert eval_graph(p, 2.0) == (4.0, 4.0)

    ep = MonotoneGraph("extended_power", (1.0, 2.0))
    assert (ep.domain_lo, ep.domain_hi) == (0.0, math.inf)
    assert eval_graph(ep, 0.0) == (-math.inf, 0.0)

    en = MonotoneGraph("extended_neumann")
    assert en.domain_lo == 0.0
    assert eval_graph(en, 0.0) == (-math.inf, 0.0)
    assert eval_graph(en, 3.0) == (0.0, 0.0)

    ob = MonotoneGraph("obstacle", (1.0,))
    assert (ob.domain_lo, ob.domain_hi) == (-1.0, 1.0)
    assert eval_graph(ob, -1.0) == (-math.inf, 0.0) and eval_graph(ob, 1.0) == (0.0, math.inf)


@pytest.mark.parametrize(
    "spec",
    [
        ("power", (1.0, 1.0)),
        ("power", (-0.5, 2.0)),
        ("extended_power", (1.0, 0.5)),
        ("obstacle", (0.0,)),
        ("nonsense", ()),
    ],
)
def test_make_graph_rejects_bad_parameters(spec):
    with pytest.raises(ConfigurationError):
        MonotoneGraph(*spec)


@pytest.mark.parametrize("args", [("custom",), ("nonsense",)], ids=["custom", "unknown_kind"])
def test_graph_of_unknown_kind_or_without_endpoint_segment_rejected(args):
    """A graph's domain and endpoint segments follow from its kind, so a
    graph without the segment at a finite endpoint can no longer be asked
    for; an unknown kind is refused."""
    for kind in graphs.KINDS:  # the seven kinds pass the check
        assert MonotoneGraph(kind, tuple(graphs.KINDS[kind].params.values())).kind == kind
    with pytest.raises(ConfigurationError):
        MonotoneGraph(*args)


@pytest.mark.parametrize(
    "args",
    [
        ("linear", ()),
        ("linear", (-1.0,)),
        ("power", (1.0, 0.5)),
        ("power", (1.0,)),
        ("extended_power", (-1.0, 2.0)),
        ("extended_power", (1.0, 2.0, 3.0)),
        ("obstacle", (0.0,)),
        ("obstacle", ()),
        ("zero", (1.0,)),
        ("dirichlet", (1.0,)),
        # an infinite level: the domain would have no finite endpoint for
        # the segment an obstacle needs
        ("obstacle", (math.inf,)),
        ("obstacle", (1.0, 2.0)),
        ("extended_neumann", (1.0,)),
        ("linear", (math.nan,)),
        ("extended_power", (math.nan, 2.0)),
        ("power", (1.0, math.nan)),
    ],
)
def test_graph_whose_params_or_domain_do_not_fit_its_kind_rejected(args):
    """The resolvent trusts kind and params, so a graph whose params do not
    fit its kind is refused when built (linear without params made
    resolve_terms raise IndexError, and a power graph with q = 0.5
    resolved silently)."""
    with pytest.raises(ConfigurationError):
        MonotoneGraph(*args)
    built = [zero_graph(), linear_graph(0.0), power_graph(0.0, 1.5), dirichlet_graph(),
             extended_power_graph(2.0, 3.0), extended_neumann_graph(), obstacle_graph(0.25)]
    assert [G.kind for G in built] == list(graphs.KINDS)  # the seven factories still build


def test_graph_is_its_kind_and_params():
    """Equal (kind, params) make equal graphs, and nothing else can be
    stored: a selection that disagreed with the kind (a "zero" graph with
    g(r) = 5r resolved 6 to 6, while eval_graph reported 5) cannot be
    passed."""
    assert power_graph(1, 3) == power_graph(1.0, 3.0) == MonotoneGraph("power", [1, 3])
    assert hash(power_graph(1, 3)) == hash(power_graph(1.0, 3.0))
    assert power_graph(1.0, 3.0) != extended_power_graph(1.0, 3.0)
    assert power_graph(1.0, 3.0) != power_graph(1.0, 2.5)
    assert [f.name for f in dataclasses.fields(MonotoneGraph)] == ["kind", "params"]
    with pytest.raises(TypeError):
        MonotoneGraph(-math.inf, math.inf, lambda r: 5 * r, False, False, "zero")
    with pytest.raises(TypeError):
        MonotoneGraph("zero", (), selection=lambda r: 5 * r)


def test_merge_terms_merges_equal_graphs():
    a, b = power_graph(1.0, 3.0), power_graph(1.0, 3.0)
    assert a == b and a is not b
    assert graphs._merge_terms([(1.0, a), (2.0, b)]) == [(3.0, a)]
    assert graphs._merge_terms([(1.0, a), (2.0, extended_power_graph(1.0, 3.0))]) == [
        (1.0, a), (2.0, extended_power_graph(1.0, 3.0))]


# ---------------------------------------------------------------------------
# set-valued evaluation
# ---------------------------------------------------------------------------


def test_eval_graph_obstacle():
    ob = obstacle_graph(1.0)
    assert eval_graph(ob, 0.5) == (0.0, 0.0)
    assert eval_graph(ob, 1.0) == (0.0, math.inf)
    assert eval_graph(ob, -1.0) == (-math.inf, 0.0)
    assert eval_graph(ob, 1.5) is None


def test_eval_graph_identity_and_dirichlet():
    assert eval_graph(power_graph(1.0, 2.0), -3.0) == (-3.0, -3.0)
    assert eval_graph(dirichlet_graph(), 0.0) == (-math.inf, math.inf)
    assert eval_graph(dirichlet_graph(), 0.1) is None


# ---------------------------------------------------------------------------
# resolvent and Yosida approximation
# ---------------------------------------------------------------------------


def test_resolvent_linear():
    assert resolvent(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_resolvent_dirichlet_projects_to_zero():
    for lam in (0.1, 1.0, 10.0):
        for r in (-5.0, 0.0, 3.0):
            assert resolvent(dirichlet_graph(), lam, r) == 0.0


def test_resolvent_power_quadratic_formula():
    # x + 0.5 x^2 = 1 on x >= 0, independent quadratic-formula value
    expect = (-1.0 + math.sqrt(3.0)) / 1.0
    got = resolvent(power_graph(1.0, 3.0), 0.5, 1.0)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(oracle_resolvent(power_graph(1.0, 3.0), 0.5, 1.0), abs=1e-10)


def _oracle_power_root(t, beta, q):
    # tol=0: bisect down to adjacent floats, so the error is relative at any t
    return oracle_resolvent(power_graph(1.0, q), beta, t, tol=0.0)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(float(lo_exp), float(hi_exp)).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([2.5, 3.0]) | st.floats(1.01, 4.0),
    beta=st.just(0.0) | _log_uniform(-12, 6) | st.floats(1e-12, 1e6),
    t=st.just(0.0) | _log_uniform(-300, 12) | st.floats(1e-300, 1e12),
)
@example(q=1.5, beta=1e6, t=1.01e-10)  # a bracket of 1e-12 absolute gave 4.4e-29, not 1.02e-32
@example(q=1.1, beta=3.7e-5, t=1e-103)  # a root below 1e-300, which [0, t] halved 400 times missed
@example(q=1.01, beta=378049.0, t=10**2.5)  # the slope overflowed near the root 1.76e-308
def test_power_root_five_halves_matches_oracle(q, beta, t):
    # closed forms for q = 5/2 and 3, Newton for the rest; the oracle halves
    # in float order, so it reaches every root, and a root below the
    # smallest normal float is compared to the accuracy that floats carry there
    got = graphs._power_root(np.array([t]), beta, q)[0]
    expect = _oracle_power_root(t, beta, q)
    assert got == pytest.approx(expect, rel=1e-12, abs=sys.float_info.min)


@pytest.mark.parametrize("beta", [1e-12, 1e-3, 1.0, 1e6])
def test_power_root_five_halves_exact_zero_and_monotone(beta):
    assert np.all(graphs._power_root(np.zeros(3), beta, 2.5) == 0.0)
    # (3 sqrt(3) / 2) beta sqrt(t) = 1: the trigonometric / hyperbolic switch
    t_switch = 4.0 / (27.0 * beta**2)
    t = np.linspace(0.5, 2.0, 200_001) * t_switch
    xi = graphs._power_root(t, beta, 2.5)
    assert np.all(np.diff(xi) >= 0.0)
    for k in (0, 100_000, 100_001, 200_000):
        assert xi[k] == pytest.approx(_oracle_power_root(t[k], beta, 2.5), rel=1e-12)


def test_power_root_five_halves_non_finite_input_stays_non_finite():
    with np.errstate(invalid="ignore"):
        xi = graphs._power_root(np.array([np.inf, np.nan, 1.0]), 1.0, 2.5)
    assert not np.isfinite(xi[0]) and not np.isfinite(xi[1]) and np.isfinite(xi[2])


def _viete_five_halves(t, beta):
    """The q = 5/2 closed form without in-place operations, as a reference."""
    x = 1.5 * math.sqrt(3.0) * beta * np.sqrt(t)
    w = np.cos(np.arccos(np.minimum(x, 1.0)) / 3.0)
    big = x > 1.0
    if big.any():
        w[big] = np.cosh(np.arccosh(x[big]) / 3.0)
    return 0.75 * t / (w * w)


@pytest.mark.parametrize("t", [
    np.array([]),
    np.array([np.nan]),
    np.array([0.0, 1e-3, 0.5]),  # every x <= 1: no hyperbolic branch
    np.array([np.nan, 0.1, 2.0, 40.0]),  # NaN beside x on both sides of 1
    np.array([0.0, np.inf, 3.0]),
])
def test_power_root_five_halves_is_bitwise_the_plain_closed_form(t):
    with np.errstate(invalid="ignore"):
        got = graphs._power_root(t.copy(), 1.0, 2.5)
        want = _viete_five_halves(t, 1.0)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [2.5, 3.0, 2.7])
@pytest.mark.parametrize("t, beta", [(1e20, 1e300), (0.15, 1.7e308), (1e308, 1e200)])
def test_power_root_where_beta_times_t_overflows(q, t, beta):
    # beta * sqrt(t) > 7e307: Viete's x, 4 beta t and beta t^(q-1) overflow,
    # and the root is (t / beta)^(1/(q-1)) to double precision
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = graphs._power_root(np.array([t]), beta, q)[0]
    assert got == pytest.approx((t / beta) ** (1.0 / (q - 1.0)), rel=1e-12, abs=0.0)


def test_power_root_generic_newton_near_the_largest_float():
    # beta t^(q-1) = 1e-300 * (1.7e308)^1.7 ~ 1e224 < t, but t^(q-1) overflows
    t = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = graphs._power_root(np.array([t]), 1e-300, 2.7)[0]
    assert got == pytest.approx(t, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("q, beta", [(1.5, 10.0), (1.8, 1e3), (1.1, 1e30)])
def test_power_root_below_q_two_near_the_largest_float(q, beta):
    # beta * xi^(q-1) is finite, but beta * xi overflows: the term must not
    # be formed through the product beta * xi
    t = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = graphs._power_root(np.array([t]), beta, q)[0]
    assert got == pytest.approx(_oracle_power_root(t, beta, q), rel=1e-12, abs=0.0)


def test_power_sum_root_where_beta_times_t_overflows():
    # the 1e300 xi^(3/2) term alone balances t = 1e20: xi = (1e20 / 1e300)^(2/3),
    # and xi, xi^2 are below 1e20 * 1e-200; starting Newton at xi = t overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = graphs._power_sum_root(np.array([1e20]), [(1e300, 2.5), (1.0, 3.0)])[0]
    assert got == pytest.approx(2.154434690031884e-187, rel=1e-12, abs=0.0)  # 10^(1/3) 1e-187


_EXPONENTS = st.sampled_from([2.5, 3.0]) | st.floats(1.01, 4.0)
_COEFFICIENTS = _log_uniform(-12, 6) | st.floats(1e-12, 1e6)


@settings(max_examples=300, deadline=None)
@given(
    powers=st.lists(st.tuples(_COEFFICIENTS, _EXPONENTS), min_size=2, max_size=3),
    t=st.just(0.0) | _log_uniform(-300, 12) | st.floats(1e-300, 1e12),
)
def test_power_sum_root_matches_oracle(powers, t):
    # sums of 2-3 power laws, where a boundary law meets an interior one; the
    # oracle sums the terms in Python floats, which overflow beyond t = 1e12
    got = graphs._power_sum_root(np.array([t]), powers)[0]
    expect = oracle_resolve_terms([(beta, power_graph(1.0, q)) for beta, q in powers], t, tol=0.0)
    assert got == pytest.approx(expect, rel=1e-12, abs=sys.float_info.min)


class _CountingNumpy:
    """numpy, counting the calls of ``abs``, which the loop of
    ``_power_sum_root``, where ``_power_root`` sends these q, makes once per
    Newton step."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, *args):
        self.steps += 1
        return np.abs(*args)


@pytest.mark.parametrize("q", [1.5, 1.8, 2.7])
@pytest.mark.parametrize("t", [1e4, 1e8, 1e12])
def test_power_root_generic_paths_stop_relative_at_large_t(monkeypatch, q, t):
    # an absolute stop of NEWTON_TOL can never be met once ulp(xi) exceeds it
    counting = _CountingNumpy()
    monkeypatch.setattr(graphs, "np", counting)
    got = graphs._power_root(np.array([t]), 1.0, q)[0]
    monkeypatch.undo()
    assert got == pytest.approx(_oracle_power_root(t, 1.0, q), rel=1e-12, abs=0.0)
    assert counting.steps < 60


def test_resolvent_matches_oracle_on_all_kinds():
    rng = np.random.default_rng(7)
    for G in LIBRARY_GRAPHS.values():
        for _ in range(40):
            lam = float(rng.uniform(1e-3, 10.0))
            r = float(rng.uniform(-10.0, 10.0))
            assert resolvent(G, lam, r) == pytest.approx(
                oracle_resolvent(G, lam, r), abs=1e-10
            )


def test_yosida_obstacle_piecewise_formula():
    ob = obstacle_graph(1.0)
    assert yosida(ob, 0.5, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert yosida(ob, 0.5, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert yosida(ob, 0.5, -2.0) == pytest.approx(-2.0, abs=1e-12)
    assert yosida(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_yosida_converges_to_selection():
    pts = {"linear": 0.7, "power_1_1.5": 1.3, "power_1_3": -0.8, "extended_power": 2.0}
    for name, r in pts.items():
        G = LIBRARY_GRAPHS[name]
        errs = [abs(yosida(G, lam, r) - float(G.g(r))) for lam in (1e-2, 1e-4, 1e-6)]
        assert errs[0] >= errs[1] >= errs[2] - 1e-12
        assert errs[2] <= 1e-4


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(LIBRARY_GRAPHS)),
    lam=st.floats(1e-3, 10.0),
    r=st.floats(-50.0, 50.0),
    s=st.floats(-50.0, 50.0),
)
def test_resolvent_contraction_and_monotonicity(name, lam, r, s):
    G = LIBRARY_GRAPHS[name]
    xr = resolvent(G, lam, r)
    xs = resolvent(G, lam, s)
    assert abs(xr - xs) <= abs(r - s) + 1e-11
    if r >= s:
        assert xr >= xs - 1e-11


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(LIBRARY_GRAPHS)),
    lam=st.floats(1e-3, 10.0),
    r=st.floats(-20.0, 20.0),
    s=st.floats(-20.0, 20.0),
)
def test_yosida_monotone_and_lipschitz(name, lam, r, s):
    G = LIBRARY_GRAPHS[name]
    yr = yosida(G, lam, r)
    ys = yosida(G, lam, s)
    assert abs(yr - ys) <= abs(r - s) / lam + 1e-9
    if r >= s:
        assert yr >= ys - 1e-9


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(LIBRARY_GRAPHS)),
    lam=st.floats(1e-3, 10.0),
    r=st.floats(-20.0, 20.0),
)
def test_resolvent_solves_the_inclusion(name, lam, r):
    """Maximality proxy: x is in the closed domain and (r - x)/lam lies in gamma(x)."""
    G = LIBRARY_GRAPHS[name]
    x = resolvent(G, lam, r)
    assert G.domain_lo - 1e-12 <= x <= G.domain_hi + 1e-12
    x = min(max(x, G.domain_lo), G.domain_hi)
    z = (r - x) / lam
    # bracket the value set over the x-uncertainty interval: q < 2 power
    # graphs have unbounded slope at 0, so g itself may move by ~sqrt(tol)
    dx = 1e-10
    x_lo = min(max(x - dx, G.domain_lo), G.domain_hi)
    x_hi = min(max(x + dx, G.domain_lo), G.domain_hi)
    vmin = eval_graph(G, x_lo)[0]
    vmax = eval_graph(G, x_hi)[1]
    slack = 1e-10 * (1.0 + abs(r)) / lam
    assert vmin - slack <= z <= vmax + slack


def test_graph_relation_monotone_on_samples():
    rng = np.random.default_rng(3)
    for G in LIBRARY_GRAPHS.values():
        lo = max(G.domain_lo, -20.0)
        hi = min(G.domain_hi, 20.0)
        rs = rng.uniform(lo, hi, size=60)
        zs = np.asarray(G.g(rs))
        d = (zs[:, None] - zs[None, :]) * (rs[:, None] - rs[None, :])
        assert d.min() >= -1e-12


# ---------------------------------------------------------------------------
# weighted sums of graphs
# ---------------------------------------------------------------------------

KINDS = ("zero", "linear", "power", "dirichlet", "extended_power", "extended_neumann", "obstacle")
KIND_COMBOS = [(k1, k2) for k1 in KINDS for k2 in KINDS] + [
    ("obstacle", k1, k2) for k1 in KINDS for k2 in KINDS
]

graph_params = st.fixed_dictionaries(
    {
        "alpha": st.floats(0.0, 5.0),
        # repeated exponents merge; q = 2, 3 take the quadratic closed forms
        # and q = 2.5 the cubic one
        "q": st.sampled_from([1.5, 2.0, 2.5, 3.0]) | st.floats(1.1, 4.0),
        "level": st.floats(0.05, 5.0),
        "slope": st.floats(0.0, 5.0),
    }
)


def _graph(kind, p):
    """The graph of this kind with its params taken from ``p`` by JSON name."""
    return MonotoneGraph(kind, tuple(p[name] for name in graphs.KINDS[kind].params))


def _sum_terms(kinds, params, weights):
    return [(lam, _graph(k, p)) for k, p, lam in zip(kinds, params, weights)]


@settings(max_examples=400, deadline=None)
@given(
    kinds=st.sampled_from(KIND_COMBOS),
    params=st.lists(graph_params, min_size=3, max_size=3),
    weights=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3),
    rs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4),
)
def test_resolve_terms_sums_match_oracle(kinds, params, weights, rs):
    terms = _sum_terms(kinds, params, weights)
    got = resolve_terms(np.asarray(rs), terms)
    for r, x in zip(rs, got):
        assert x == pytest.approx(oracle_resolve_terms(terms, r), abs=1e-10)


def test_resolve_terms_builtin_sums_skip_bisection():
    params = [
        {"alpha": 1.0, "q": 1.5, "level": 0.7, "slope": 2.0},
        {"alpha": 0.5, "q": 3.0, "level": 2.0, "slope": 0.5},
        {"alpha": 2.0, "q": 2.5, "level": 1.0, "slope": 1.0},
    ]
    rs = np.linspace(-6.0, 6.0, 25)
    for kinds in KIND_COMBOS:
        terms = _sum_terms(kinds, params, (0.3, 2.0, 1.1))
        x = resolve_terms(rs, terms)
        assert np.all(np.diff(x) >= 0.0), kinds
        for r, xi in zip(rs[::6], x[::6]):
            assert xi == pytest.approx(oracle_resolve_terms(terms, r), abs=1e-10), kinds


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.sampled_from(KIND_COMBOS),
    params=st.lists(graph_params, min_size=3, max_size=3),
    weights=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3),
    r=st.floats(-20.0, 20.0),
)
def test_resolvent_slope_matches_difference_quotient(kinds, params, weights, r):
    terms = _sum_terms(kinds, params, weights)
    lo = max(G.domain_lo for _, G in terms)
    hi = min(G.domain_hi for _, G in terms)
    x = float(resolve_terms(np.asarray([r]), terms)[0])
    slope = float(resolvent_slope(np.asarray([x]), terms)[0])
    if x in (lo, hi):
        assert slope == 0.0  # clipped to an endpoint of the common domain
        return
    assert 0.0 <= slope <= 1.0  # 0 at x = 0 under a power term with q < 2
    eps = 1e-5
    x_lo, x_hi = resolve_terms(np.asarray([r - eps, r + eps]), terms)
    if lo < x_lo and x_hi < hi and abs(x) > 1e-2:  # smooth near r (q < 2 is singular at 0)
        assert slope == pytest.approx((x_hi - x_lo) / (2.0 * eps), rel=1e-3, abs=1e-6)


def test_resolvent_slope_ignores_power_weight_that_underflows():
    # lam * alpha = 0.05 * 5e-324 rounds to 0: the term is absent, as in the resolvent
    G = power_graph(5e-324, 1.5)
    x = np.array([0.0, 1.0])
    with np.errstate(all="raise"):
        assert np.all(resolvent_slope(x, [(0.05, G)]) == 1.0)
        assert np.all(resolve_terms(x, [(0.05, G)]) == x)


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.sampled_from(KIND_COMBOS),
    params=st.lists(graph_params, min_size=3, max_size=3),
    weights=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=3),
    s=st.floats(1e-6, 1e3),
)
def test_scaled_plan_stands_for_its_scaled_terms(kinds, params, weights, s):
    terms = _sum_terms(kinds, params, weights)
    R = graphs.ResolventPlan(terms).at(s)
    merged = {}  # equal graphs are one term, in the order they first appear
    for lam, G in terms:
        if G.kind != "zero":
            merged[G] = merged.get(G, 0.0) + lam
    scaled = [(s * lam, G) for G, lam in merged.items()]
    assert list(R) == scaled
    rs = np.linspace(-6.0, 6.0, 13)
    x = resolve_terms(rs, R)
    np.testing.assert_allclose(x, resolve_terms(rs, scaled), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(resolvent_slope(x, R), resolvent_slope(x, scaled), rtol=1e-12, atol=1e-14)


def test_resolvent_slope_is_zero_at_non_finite_values():
    x = np.array([np.nan, np.inf, -np.inf, 1.0])
    assert np.all(resolvent_slope(x, [(2.0, linear_graph(1.0))]) == [0.0, 0.0, 0.0, 1.0 / 3.0])


def test_resolvent_slope_of_empty_sum_is_one():
    assert np.all(resolvent_slope(np.linspace(-2.0, 2.0, 5), []) == 1.0)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------


def test_dominates_dirichlet_below_extended_power_mode_iii():
    v = dominates(dirichlet_graph(), extended_power_graph(1.0, 2.0))
    assert v.holds and v.mode == "iii"


def test_dominates_extended_power_over_extended_neumann_mode_ii():
    v = dominates(extended_power_graph(1.0, 2.0), extended_neumann_graph())
    assert v.holds and v.mode == "ii"


def test_dominates_identical_mode_i():
    v = dominates(power_graph(1.0, 2.0), power_graph(1.0, 2.0))
    assert v.holds and v.mode == "i"


def test_dominates_reflexive_for_every_kind():
    for G in LIBRARY_GRAPHS.values():
        assert dominates(G, G).mode == "i"


def test_dominates_swap_fails_with_witness():
    v = dominates(extended_neumann_graph(), extended_power_graph(1.0, 2.0))
    assert v.status == "fails"
    r1, r2, inf1, sup2 = v.witness
    assert r1 > r2 and sup2 > inf1


def test_dominates_zero_vs_power_fails():
    # gamma2 = power takes positive values that the zero graph cannot dominate
    v = dominates(zero_graph(), power_graph(1.0, 2.0))
    assert v.status == "fails"


def test_dominates_mode_restriction_for_interior_graphs():
    # interior-law check admits modes (i)/(ii) only; domain separation then
    # makes (ii) hold vacuously
    v = dominates(dirichlet_graph(), extended_power_graph(1.0, 2.0), modes=("i", "ii"))
    assert v.holds and v.mode == "ii"


# the pairs a 201-point sample on [-50, 50] certified as holding: gamma2 > gamma1
# for every r > 0 in the first two, and for every r > 1e10 in the third
SAMPLER_MISSED = [
    (power_graph(1.0, 3.0), power_graph(1.01, 3.0)),
    (linear_graph(1.0), linear_graph(1.001)),
    (extended_power_graph(1.0, 2.5), extended_power_graph(0.1, 2.6)),
]


def _check_witness(G1, G2, witness):
    r1, r2, inf1, sup2 = witness
    assert r1 > r2 and G1.contains(r1) and G2.contains(r2)
    assert inf1 == eval_graph(G1, r1)[0] and sup2 == eval_graph(G2, r2)[1]
    assert sup2 > inf1


@pytest.mark.parametrize("G1, G2", SAMPLER_MISSED)
def test_dominates_fails_where_the_sampler_missed(G1, G2):
    v = dominates(G1, G2)
    assert v.status == "fails" and v.witness is not None
    _check_witness(G1, G2, v.witness)
    assert dominates(G2, G1).status == "fails"  # power laws on R are ordered only when equal


@pytest.mark.parametrize("G1, G2, status", [
    (obstacle_graph(1.0), obstacle_graph(1.5), "fails"),  # gamma1(-1) reaches down to -inf
    (obstacle_graph(1.5), obstacle_graph(1.0), "fails"),  # gamma2(1) reaches up to +inf
    (extended_power_graph(1.0, 2.0), obstacle_graph(1.0), "fails"),
    (obstacle_graph(1.0), extended_neumann_graph(), "holds"),  # both 0 on (0, 1]
    (obstacle_graph(1.0), extended_power_graph(1.0, 2.0), "fails"),
    (power_graph(1.0, 3.0), extended_power_graph(0.5, 3.0), "holds"),  # on (0, inf) only
    (power_graph(1.0, 3.0), extended_power_graph(0.5, 2.5), "fails"),
    (power_graph(2.0, 2.0), linear_graph(2.0), "holds"),  # one law, two kinds
    (power_graph(1.0, 3.0), zero_graph(), "fails"),  # r < 0: gamma1 < 0 = gamma2
])
def test_dominates_mode_ii_by_case(G1, G2, status):
    v = dominates(G1, G2, modes=("ii",))
    assert v.status == status and (v.mode == "ii") == (status == "holds")
    if v.witness is not None:
        _check_witness(G1, G2, v.witness)
    assert (oracle_dominates(G1, G2) is None) == (status == "holds")


BEYOND_FLOATS = (extended_power_graph(1.0, 2.5), extended_power_graph(1e-40, 2.6))


def test_dominates_witness_beyond_the_largest_float_is_none():
    # gamma2 > gamma1 only above r* = 1e400
    v = dominates(*BEYOND_FLOATS)
    assert v.status == "fails" and v.witness is None
    assert oracle_dominates(*BEYOND_FLOATS) is None and oracle_fails_beyond_floats(*BEYOND_FLOATS)


_COEF = st.sampled_from([0.0, 0.1, 1.0, 1.01, 2.0]) | st.floats(0.0, 10.0)
_Q = st.sampled_from([1.5, 2.0, 2.5, 2.6, 3.0]) | st.floats(1.1, 4.0)
_GRAPHS = st.one_of(
    st.sampled_from([zero_graph(), dirichlet_graph(), extended_neumann_graph()]),
    st.builds(linear_graph, _COEF),
    st.builds(power_graph, _COEF, _Q),
    st.builds(extended_power_graph, _COEF, _Q),
    st.builds(obstacle_graph, st.sampled_from([0.5, 1.0, 2.0]) | st.floats(1e-3, 1e3)),
)


@settings(max_examples=300, deadline=None)
@given(G1=_GRAPHS, G2=_GRAPHS)
@example(G1=SAMPLER_MISSED[0][0], G2=SAMPLER_MISSED[0][1])
@example(G1=SAMPLER_MISSED[1][0], G2=SAMPLER_MISSED[1][1])
@example(G1=SAMPLER_MISSED[2][0], G2=SAMPLER_MISSED[2][1])
@example(G1=BEYOND_FLOATS[0], G2=BEYOND_FLOATS[1])
# r > 0 fails only below 1e-610, r < 0 everywhere: the witness comes from r < 0
@example(G1=linear_graph(0.1), G2=power_graph(1.9310133905080033e-306, 1.5))
# exponents one ulp apart: the laws part by more than rounding only far from r* = 1
@example(G1=power_graph(1.0, 1.1), G2=extended_power_graph(1.0, 1.1000000000000003))
def test_dominates_fails_exactly_where_the_definition_fails(G1, G2):
    # a violation on the oracle's grid is a failure, with a witness unless
    # only subnormal values show it; a witness is a violation; a failure
    # without one persists beyond the floats, where the oracle sees it in log space
    v = dominates(G1, G2)
    violation = oracle_dominates(G1, G2)
    if violation is not None:
        assert v.status == "fails"
        r1, r2 = violation
        shown = (eval_graph(G1, r1)[0], eval_graph(G2, r2)[1])
        if all(y == 0.0 or abs(y) >= sys.float_info.min for y in shown):
            assert v.witness is not None
    if v.witness is not None:
        _check_witness(G1, G2, v.witness)
    elif not v.holds:
        assert oracle_fails_beyond_floats(G1, G2)
