"""Machine-check the comparison hypotheses for a problem pair and co-evolve it.

``check_assumptions`` composes the structural checks for a (sub, super)
problem pair: ordered initial data, dominating interior and boundary graphs
(``graphs.dominates``, decided in closed form from the graphs' domains and
power laws), and ordered reactions on the symmetric state box, decided from
the reactions' kinds and params (``reactions``); every kind meets the
quasimonotone structure condition, so only its bound L_M is computed.
``run_pair`` then advances
both problems on a shared time grid, looping over the samples of the same
adaptive driver as ``stepper.run``, with an observer per problem, and
records at each sample the ordering defect

    d(t) = max_k sup (u1^k - u2^k)^+

together with a Gronwall monitor: with W(t) the summed squared L2 norms of
the positive parts, the continuous theory forces W(t) <= W(s) exp(2 m L (t-s)),
so the rescaled margin W(t) exp(-2 m L (t-s)) - W(s) must stay below a
tolerance that absorbs discretization noise.

Tolerances are pinned here: with ``smax`` the largest sup norm over the
common interval, ``h2`` the summed squared spacings and ``dtmax`` the
largest accepted step,

    tol_order    = 1e-6 + 10 (h2 + dtmax) (1 + smax)
    tol_gronwall = tol_order ** 2

(the defect budget must scale with consistency error and solution size; the
squared norm in the monitor scales with the squared defect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graphs import DominationVerdict, dominates
from .mesh import sup_norm
from .reactions import OrderVerdict, check_order_F, lipschitz_bound
from .stepper import ProblemSpec, TimeControl, Trajectory, _AdaptiveRun, _advance, detect_blowup, run

__all__ = [
    "AssumptionReport",
    "ComparisonReport",
    "BlowupOrderResult",
    "check_assumptions",
    "run_pair",
    "blowup_order_experiment",
]


@dataclass(frozen=True)
class AssumptionReport:
    """Structured verdicts for the four comparison hypotheses.

    a1: initial ordering with the largest violation; a2/a3: per-component
    domination verdicts for interior/boundary graphs, whose report line
    names the witness of a failure; a4: the reaction
    ordering F1 <= F2 on the symmetric box of radius ``box_radius``, decided
    from the reactions' kinds and params (``reactions`` module docstring: it
    holds only for equal reactions), and ``l_m``, the sub reaction's
    ``lipschitz_bound`` on that box, which feeds the Gronwall monitor (the
    structure condition holds for every kind).  A-priori override flags skip
    the corresponding check and are recorded; an overridden A4 leaves both
    None.  ``box_radius`` is one plus the largest initial sup norm.
    """

    a1_ok: bool
    a1_violation: float
    a2: tuple[DominationVerdict, ...]
    a3: tuple[DominationVerdict, ...]
    a4_order: OrderVerdict | None
    l_m: float | None
    box_radius: float
    a3_overridden: bool = False
    a4_overridden: bool = False

    @property
    def passed(self) -> bool:
        if not self.a1_ok:
            return False
        if not all(v.holds for v in self.a2):
            return False
        if not self.a3_overridden and not all(v.holds for v in self.a3):
            return False
        return self.a4_overridden or self.a4_order.holds

    def summary_lines(self) -> list[str]:
        lines = [f"A1 initial ordering: {'ok' if self.a1_ok else 'FAIL'} "
                 f"(max violation {self.a1_violation:.3e})"]
        for name, verdicts, skipped in (("A2", self.a2, False), ("A3", self.a3, self.a3_overridden)):
            for k, v in enumerate(verdicts):
                tag = f"mode ({v.mode})" if v.holds else v.status
                if v.witness is not None:
                    tag += (" at r1 = {!r} > r2 = {!r}: inf gamma1(r1) = {!r} < sup gamma2(r2) = {!r}"
                            .format(*v.witness))
                if skipped:
                    tag += " [overridden a priori]"
                lines.append(f"{name} component {k + 1}: {tag}")
        if self.a4_overridden:
            lines.append("A4: overridden a priori")
        else:
            lines.append(f"A4 reaction ordering: {self.a4_order.status}")
            lines.append(f"A4 structure condition (sub): ok, L_M = {self.l_m:.6g} "
                         f"on box {self.box_radius:.3g}")
        lines.append(f"assumptions {'PASS' if self.passed else 'FAIL'}")
        return lines


def check_assumptions(
    P1: ProblemSpec,
    P2: ProblemSpec,
    a3_apriori: bool = False,
    a4_apriori: bool = False,
) -> AssumptionReport:
    """Verify that (P1 sub, P2 super) satisfies the comparison hypotheses.

    The problems must share mesh, component count and diffusion
    coefficients.  The state box of the reaction checks has the radius one
    plus the largest initial sup norm.
    """
    if P1.mesh != P2.mesh:
        raise ConfigurationError("comparison requires a common mesh")
    if P1.m != P2.m:
        raise ConfigurationError(f"component counts differ: {P1.m} vs {P2.m}")
    if P1.diffusion != P2.diffusion:
        raise ConfigurationError("comparison requires common diffusion coefficients")

    box_radius = 1.0 + max(sup_norm(u) for P in (P1, P2) for u in P.initial)

    a1_violation = float(np.max(P1.initial - P2.initial))
    a1_ok = a1_violation <= 1e-12

    a2 = tuple(dominates(G1, G2, modes=("i", "ii")) for G1, G2 in zip(P1.interior, P2.interior))
    a3 = tuple(dominates(G1, G2, modes=("i", "iii", "ii")) for G1, G2 in zip(P1.boundary, P2.boundary))

    a4_order = l_m = None
    if not a4_apriori:
        a4_order = check_order_F(P1.reaction, P2.reaction, box_radius)
        l_m = lipschitz_bound(P1.reaction, box_radius)

    return AssumptionReport(
        a1_ok, max(a1_violation, 0.0), a2, a3, a4_order, l_m, box_radius, a3_apriori, a4_apriori,
    )


@dataclass
class ComparisonReport:
    assumptions: AssumptionReport
    times: np.ndarray
    dts: np.ndarray
    defect: np.ndarray
    gronwall_margin: np.ndarray
    gronwall_start: float | None  # s with W(s) > 0, None if W stayed 0
    traj_sub: Trajectory
    traj_super: Trajectory
    tol_order: float
    tol_gronwall: float

    @property
    def max_defect(self) -> float:
        return float(self.defect.max()) if self.defect.size else 0.0

    @property
    def ordering_ok(self) -> bool:
        return self.max_defect <= self.tol_order

    @property
    def gronwall_ok(self) -> bool:
        return self.gronwall_margin.size == 0 or bool(
            np.all(self.gronwall_margin <= self.tol_gronwall)
        )

    def summary_lines(self) -> list[str]:
        lines = list(self.assumptions.summary_lines())
        lines.append(f"common interval: [0, {self.times[-1]:.6g}] in {len(self.times) - 1} steps")
        lines.append(
            f"ordering defect: max {self.max_defect:.3e} vs tol_order {self.tol_order:.3e} "
            f"-> {'ok' if self.ordering_ok else 'VIOLATION'}"
        )
        if self.gronwall_start is None:
            lines.append("gronwall monitor: inactive (positive part never appeared)")
        else:
            lines.append(
                f"gronwall margin: max {float(self.gronwall_margin.max(initial=-math.inf)):.3e} "
                f"from t = {self.gronwall_start:.3g} vs tol {self.tol_gronwall:.3e} "
                f"-> {'ok' if self.gronwall_ok else 'VIOLATION'}"
            )
        for name, traj in (("sub", self.traj_sub), ("super", self.traj_super)):
            v = detect_blowup(traj)
            if v.kind == "blowup":
                lines.append(f"{name} run: blow-up, T_b ~ {v.t_blowup:.6g} (ci {v.ci_width:.2g})")
            elif traj.status == "solver_failure":
                lines.append(f"{name} run: solver_failure ({traj.note})")
            else:
                lines.append(f"{name} run: {traj.status}")
        return lines


def run_pair(
    P1: ProblemSpec,
    P2: ProblemSpec,
    tc: TimeControl,
    assumptions: AssumptionReport | None = None,
    observers=(None, None),
) -> ComparisonReport:
    """Co-evolve (P1 sub, P2 super) on a shared adaptive time grid.

    Requires the assumption report to pass (or the failing hypotheses to be
    overridden a priori, by ``check_assumptions``); by default it is
    ``check_assumptions(P1, P2)``.  Both problems advance with the pairwise
    minimum of their adaptive step proposals so every sample is taken at
    identical times.  Each run is classified as ``stepper.run`` would
    classify it, and both stop at t_end or at the first sample where either
    blows up or fails.  ``observers`` = (sub, super) holds one observer
    per run, as in ``stepper.run``.
    """
    if assumptions is None:
        assumptions = check_assumptions(P1, P2)
    if not assumptions.passed:
        raise ConfigurationError(
            "assumption check failed; pass a-priori overrides to run regardless"
        )

    m = P1.m
    mesh = P1.mesh
    weights = mesh.quad_weights
    defects: list[float] = []
    energies: list[float] = []

    runs = [_AdaptiveRun(P, obs) for P, obs in zip((P1, P2), observers)]
    for _ in _advance(runs, tc):
        # the defect and W from one positive part (u1 - u2)^+ of all components
        pos = np.subtract(runs[0].state, runs[1].state)
        np.maximum(pos, 0.0, out=pos)
        defect = float(np.maximum.reduce(pos, axis=None))
        defects.append(defect)
        if defect == 0.0:
            energies.append(0.0)
            continue
        pos *= pos
        pos *= weights
        energies.append(float(np.add.reduce(pos, axis=None)))
    traj1, traj2 = (r.finish() for r in runs)
    times = traj1.times
    dts = traj1.dts
    energies = np.asarray(energies)
    defects = np.asarray(defects)

    # Gronwall monitor from the earliest sample with positive energy
    smax = float(max(traj1.sup_norms.max(initial=0.0), traj2.sup_norms.max(initial=0.0)))
    lm = assumptions.l_m
    margins = np.full(len(times), -math.inf)
    start = None
    pos = np.nonzero(energies > 0.0)[0]
    if pos.size and lm is None:
        # a-priori override without a usable L_M: bound partials on the box
        # actually visited by the two runs
        lm = max(lipschitz_bound(P1.reaction, smax), lipschitz_bound(P2.reaction, smax))
    if pos.size:
        i0 = int(pos[0])
        start = float(times[i0])
        w_s = energies[i0]
        margins[i0:] = energies[i0:] * np.exp(
            -2.0 * m * lm * (times[i0:] - start)
        ) - w_s

    h2 = float(sum(h**2 for h in mesh.spacing))
    dtmax = float(dts.max(initial=0.0))
    tol_order = 1e-6 + 10.0 * (h2 + dtmax) * (1.0 + smax)
    return ComparisonReport(
        assumptions, times, dts, defects, margins, start, traj1, traj2,
        tol_order, tol_order * tol_order,  # inf, not OverflowError, on huge states
    )


@dataclass(frozen=True)
class BlowupOrderResult:
    verdicts: tuple
    t_blowups: tuple[float, ...]
    slack: float
    passed: bool
    failures: tuple[str, ...]


def blowup_order_experiment(specs, tc: TimeControl) -> BlowupOrderResult:
    """Run an ordered list of problems and assert nondecreasing blow-up times.

    Every run must terminate with a blow-up; successive estimates must be
    ordered within one shared dt of slack (the largest step accepted by any
    of the runs).
    """
    trajs = [run(P, tc) for P in specs]
    verdicts = tuple(detect_blowup(t) for t in trajs)
    failures = []
    slack = max(float(t.dts.max(initial=0.0)) for t in trajs)
    for i, (t, v) in enumerate(zip(trajs, verdicts)):
        if v.kind != "blowup":
            failures.append(f"run {i} ended with status {t.status!r} instead of blow-up")
    tbs = tuple(v.t_blowup if v.t_blowup is not None else math.nan for v in verdicts)
    if not failures:
        for i in range(len(tbs) - 1):
            if not tbs[i] <= tbs[i + 1] + slack:
                failures.append(
                    f"T_b order violated: T_b[{i}]={tbs[i]:.6g} > T_b[{i + 1}]={tbs[i + 1]:.6g} "
                    f"+ slack {slack:.3g}"
                )
    return BlowupOrderResult(verdicts, tbs, slack, not failures, tuple(failures))
